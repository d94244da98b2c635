package session

import (
	"encoding/json"
	"testing"
)

// TestDecodeRejectsNegativeThink: a think time is how long the user
// pondered, so a script with a negative one was not recorded from a session.
func TestDecodeRejectsNegativeThink(t *testing.T) {
	if _, err := Decode([]byte(`{"name":"x","steps":[{"command":"iso.dataman","think_ns":-1}]}`)); err == nil {
		t.Fatal("a step with think_ns -1 was accepted")
	}
	if _, err := Decode([]byte(`{"name":"x","steps":[{"command":"iso.dataman","think_ns":0}]}`)); err != nil {
		t.Fatalf("a step with no think time was refused: %v", err)
	}
}

// FuzzSessionDecode feeds the script parser the client's -script input:
// it must never panic, and a script it accepts has at least one step, every
// step a command and no step a negative think time.
func FuzzSessionDecode(f *testing.F) {
	seed, err := json.Marshal(testScript())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"name":"x","steps":[{"command":"c","think_ns":-5}]}`))
	f.Add([]byte(`{"steps":[{"command":"","params":{"a":"b"}}]}`))
	f.Add([]byte(`{"name":"x","steps":[]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if len(s.Steps) == 0 {
			t.Fatal("accepted a script with no steps")
		}
		for i, st := range s.Steps {
			if st.Command == "" {
				t.Fatalf("accepted step %d without a command", i)
			}
			if st.Think < 0 {
				t.Fatalf("accepted step %d with think time %v", i, st.Think)
			}
		}
	})
}

package commands

import "viracocha/internal/core"

// All returns one instance of every command in this layer.
func All() []core.Command {
	return []core.Command{
		SimpleIso{},
		IsoDataMan{},
		ViewerIso{},
		ProgressiveIso{},
		SimpleVortex{},
		VortexDataMan{},
		StreamedVortex{},
		SimplePathlines{},
		PathlinesDataMan{},
	}
}

// RegisterAll registers every command with the runtime.
func RegisterAll(rt *core.Runtime) {
	for _, c := range All() {
		rt.Register(c)
	}
}

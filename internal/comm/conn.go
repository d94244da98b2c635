package comm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrWriteTimeout marks a Send that missed the connection's write deadline:
// the peer accepted the connection but stopped draining it (a wedged
// renderer, a half-open link). errors.Is-match it to distinguish "peer
// wedged" from "peer gone".
var ErrWriteTimeout = errors.New("comm: write timeout: peer not draining")

// Conn adapts a net.Conn (the TCP link between visualization client and
// scheduler) into a sender and receiver of framed messages. Writes are
// serialized; reads are expected from a single goroutine. Reads go through a
// small read-ahead buffer, so an ack or a frame's head costs no syscall of its
// own, into one frame buffer the Conn reuses.
type Conn struct {
	c   net.Conn
	wmu sync.Mutex // guards wto and fw
	wto time.Duration
	fw  frameWriter
	br  *bufio.Reader
	fr  frameReader
}

// NewConn wraps an established connection.
func NewConn(c net.Conn) *Conn { return &Conn{c: c, br: bufio.NewReader(c)} }

// SetWriteTimeout bounds every subsequent Send: a frame that cannot be fully
// written within d fails with ErrWriteTimeout instead of blocking the sender
// forever behind a peer that stopped reading. d <= 0 restores unbounded
// writes.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.wmu.Lock()
	c.wto = d
	c.wmu.Unlock()
}

// Send writes one framed message, honoring the write timeout when one is
// set. After a timeout the connection is poisoned (a frame may be partially
// written) and must be discarded, like after any other send error.
func (c *Conn) Send(m Message) error { return c.SendFrame(NewFrame(m)) }

// SendFrame is Send for a message already encoded with NewFrame: a sender that
// keeps the frame (the bridge's stream log) encodes once and copies nothing.
func (c *Conn) SendFrame(f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wto > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.wto))
		defer c.c.SetWriteDeadline(time.Time{})
	}
	err := c.fw.write(c.c, f)
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w (after %v)", ErrWriteTimeout, c.wto)
	}
	return err
}

// Recv reads one framed message; ok is false on any read error (EOF,
// closed connection, corrupt frame), after which the connection is dead. The
// message's Payload aliases the Conn's frame buffer until the next Recv: a
// caller that keeps the payload longer clones it. A frame beyond 1 MiB has a
// buffer of its own, which the Conn does not keep.
func (c *Conn) Recv() (Message, bool) {
	m, err := c.fr.read(c.br)
	if err != nil {
		return Message{}, false
	}
	return m, true
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

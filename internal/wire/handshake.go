// Handshake framing: a 4-byte big-endian body length, then a JSON envelope.
// Only the two messages of the handshake use it — a hello, and the error that
// refuses one — so that a peer of any protocol revision, v3 and older
// included, can still read why it was refused. Every other message is binary
// (binary.go).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// handshake is the envelope of a JSON-framed frame. Its encoding is the
// Message encoding restricted to the two handshake payloads, so a peer
// decoding it as a whole Message reads the same thing.
type handshake struct {
	Type  string `json:"type"`
	Hello *Hello `json:"hello,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// appendHandshakeFrame appends m JSON-framed. It takes the envelope by value
// so the marshal's interface boxing cannot force Send's envelope onto the
// heap and tax the binary path with it.
func appendHandshakeFrame(b []byte, m Message) ([]byte, error) {
	body, err := json.Marshal(handshake{Type: m.Type, Hello: m.Hello, Error: m.Error})
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	if len(body) > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...), nil
}

// decodeHandshake decodes a JSON-framed body into *m, refusing any message
// that is not part of the handshake.
func decodeHandshake(body []byte, m *Message) error {
	var h handshake
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	if h.Type != TypeHello && h.Type != TypeError {
		return fmt.Errorf("wire: JSON-framed %q message outside the handshake", h.Type)
	}
	*m = Message{Type: h.Type, Hello: h.Hello, Error: h.Error}
	return nil
}

// Refuse sends the error that refuses a peer's hello, JSON-framed like the
// hello it answers, so a peer of any revision can read msg. The caller closes
// the connection after it.
func (c *Codec) Refuse(msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := appendHandshakeFrame(c.sendBuf[:0], Message{Type: TypeError, Error: &Error{Msg: msg}})
	if err != nil {
		return err
	}
	return c.writeLocked(b)
}

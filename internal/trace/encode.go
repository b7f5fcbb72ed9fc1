package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file provides two interchange formats for computations:
//
//   - JSON: a stable schema for tooling ({"events":[{"proc":…},…]});
//   - a compact line format for hand-written traces and CLI input:
//
//     # comment
//     send p q tag
//     recv q p
//     recv q p msg=p:0
//     internal p tag
//
// Both decoders re-validate, so a decoded Computation is always a valid
// system computation. Line-format receives resolve FIFO-per-channel by
// default, or an explicit message with msg=<id>.

// eventJSON is the wire form of one event.
type eventJSON struct {
	ID   EventID `json:"id"`
	Proc ProcID  `json:"proc"`
	Kind string  `json:"kind"`
	Msg  MsgID   `json:"msg,omitempty"`
	Peer ProcID  `json:"peer,omitempty"`
	Tag  string  `json:"tag,omitempty"`
}

type computationJSON struct {
	Events []eventJSON `json:"events"`
}

func kindString(k Kind) string {
	switch k {
	case KindSend:
		return "send"
	case KindReceive:
		return "recv"
	default:
		return "internal"
	}
}

func kindFromString(s string) (Kind, error) {
	switch s {
	case "send":
		return KindSend, nil
	case "recv", "receive":
		return KindReceive, nil
	case "internal":
		return KindInternal, nil
	default:
		return 0, fmt.Errorf("trace: unknown event kind %q", s)
	}
}

// MarshalJSON encodes the computation with a stable schema.
func (c *Computation) MarshalJSON() ([]byte, error) {
	evs := c.evs()
	out := computationJSON{Events: make([]eventJSON, 0, len(evs))}
	for _, e := range evs {
		out.Events = append(out.Events, eventJSON{
			ID:   e.ID,
			Proc: e.Proc,
			Kind: kindString(e.Kind),
			Msg:  e.Msg,
			Peer: e.Peer,
			Tag:  e.Tag,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and re-validates a computation, in place. The
// receiver must be a fresh (zero or exclusively owned) value: with the
// prefix-tree representation, computations obtained from Empty, Prefix,
// or Parent are shared nodes of other computations' histories, and
// decoding into one would rewrite those histories. Decoding into the
// shared empty computation is rejected outright.
func (c *Computation) UnmarshalJSON(data []byte) error {
	if c == emptyComputation {
		return fmt.Errorf("trace: cannot unmarshal into the shared empty computation; decode into a fresh variable")
	}
	var in computationJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	events := make([]Event, 0, len(in.Events))
	for _, e := range in.Events {
		kind, err := kindFromString(e.Kind)
		if err != nil {
			return err
		}
		events = append(events, Event{
			ID:   e.ID,
			Proc: e.Proc,
			Kind: kind,
			Msg:  e.Msg,
			Peer: e.Peer,
			Tag:  e.Tag,
		})
	}
	validated, err := NewComputation(events)
	if err != nil {
		return err
	}
	// Copy fields individually (the cache fields are atomics and must
	// not be copied as values) and drop any stale caches from a reused
	// receiver.
	c.parent = validated.parent
	c.last = validated.last
	c.n = validated.n
	c.hash = validated.hash
	c.flat.Store(nil)
	c.keyc.Store(nil)
	return nil
}

// ParseText reads the compact line format. Lines are
//
//	send <proc> <peer> [tag]
//	recv <proc> <peer> [msg=<id>] [tag is inherited from the send]
//	internal <proc> [tag]
//
// Blank lines and lines starting with '#' are skipped. Events receive
// canonical identifiers; recv without msg= takes the oldest in-flight
// message on the (peer → proc) channel.
func ParseText(r io.Reader) (*Computation, error) {
	b := NewBuilder()
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := applyTextLine(b, fields); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return b.Build()
}

func applyTextLine(b *Builder, fields []string) error {
	switch fields[0] {
	case "send":
		if len(fields) < 3 || len(fields) > 4 {
			return fmt.Errorf("send wants: send <proc> <peer> [tag]")
		}
		tag := ""
		if len(fields) == 4 {
			tag = fields[3]
		}
		b.Send(ProcID(fields[1]), ProcID(fields[2]), tag)
	case "recv", "receive":
		if len(fields) < 3 || len(fields) > 4 {
			return fmt.Errorf("recv wants: recv <proc> <peer> [msg=<id>]")
		}
		if len(fields) == 4 {
			if !strings.HasPrefix(fields[3], "msg=") {
				return fmt.Errorf("recv extra argument must be msg=<id>")
			}
			b.ReceiveMsg(MsgID(strings.TrimPrefix(fields[3], "msg=")))
		} else {
			b.Receive(ProcID(fields[1]), ProcID(fields[2]))
		}
	case "internal":
		if len(fields) < 2 || len(fields) > 3 {
			return fmt.Errorf("internal wants: internal <proc> [tag]")
		}
		tag := ""
		if len(fields) == 3 {
			tag = fields[2]
		}
		b.Internal(ProcID(fields[1]), tag)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return b.Err()
}

// FormatText renders the computation in the compact line format;
// ParseText(FormatText(c)) reproduces c.
func (c *Computation) FormatText() string {
	var b strings.Builder
	for _, e := range c.evs() {
		switch e.Kind {
		case KindSend:
			fmt.Fprintf(&b, "send %s %s", e.Proc, e.Peer)
			if e.Tag != "" {
				fmt.Fprintf(&b, " %s", e.Tag)
			}
		case KindReceive:
			fmt.Fprintf(&b, "recv %s %s msg=%s", e.Proc, e.Peer, e.Msg)
		case KindInternal:
			fmt.Fprintf(&b, "internal %s", e.Proc)
			if e.Tag != "" {
				fmt.Fprintf(&b, " %s", e.Tag)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

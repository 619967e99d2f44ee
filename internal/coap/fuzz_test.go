package coap

import (
	"bytes"
	"testing"
)

// fuzzSeedMessages returns marshaled messages covering the header,
// token, option-delta, and payload encoding paths.
func fuzzSeedMessages(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	mk := func(m *Message) {
		data, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	mk(&Message{Type: Confirmable, Code: CodeGET, MessageID: 1})
	m := &Message{Type: Confirmable, Code: CodeGET, MessageID: 7, Token: []byte{1, 2, 3, 4}}
	m.SetPath("sensors/temp/1")
	m.AddUintOption(OptContentFormat, FormatJSON)
	mk(m)
	m2 := &Message{Type: NonConfirmable, Code: CodePOST, MessageID: 65535, Payload: []byte(`{"v":21.5}`)}
	m2.SetPath("a")
	mk(m2)
	return seeds
}

// sameMessage reports whether a and b carry the same header, token,
// options (in order) and payload.
func sameMessage(a, b *Message) bool {
	if a.Type != b.Type || a.Code != b.Code || a.MessageID != b.MessageID ||
		!bytes.Equal(a.Token, b.Token) || !bytes.Equal(a.Payload, b.Payload) || len(a.Options) != len(b.Options) {
		return false
	}
	for i := range a.Options {
		if a.Options[i].ID != b.Options[i].ID || !bytes.Equal(a.Options[i].Value, b.Options[i].Value) {
			return false
		}
	}
	return true
}

// cloneMessage deep-copies m.
func cloneMessage(m *Message) *Message {
	c := *m
	c.Token = bytes.Clone(m.Token)
	c.Payload = bytes.Clone(m.Payload)
	c.Options = make([]Option, len(m.Options))
	for i, o := range m.Options {
		c.Options[i] = Option{ID: o.ID, Value: bytes.Clone(o.Value)}
	}
	return &c
}

// FuzzUnmarshal throws arbitrary bytes at the wire parser. A parsed
// message owns its bytes: scribbling over the input changes none of its
// fields, and appending to the token or an option value changes no other
// field (each is capped at its length). Whatever parses is a fixed point:
// Marshal's output re-parses to an equal message.
func FuzzUnmarshal(f *testing.F) {
	for _, s := range fuzzSeedMessages(f) {
		f.Add(s)
		f.Add(s[:len(s)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0x40})
	f.Add([]byte{0x4F, 0x01, 0x00, 0x01}) // token length 15 (reserved)
	f.Add([]byte{0x40, 0x01, 0x00, 0x01, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		want := cloneMessage(m)
		for i := range data {
			data[i] = 0xA5
		}
		if !sameMessage(m, want) {
			t.Fatalf("message aliases its input:\n got %+v\nwant %+v", m, want)
		}
		fields := [][]byte{m.Token}
		for _, o := range m.Options {
			fields = append(fields, o.Value)
		}
		for i, v := range fields {
			if cap(v) != len(v) {
				t.Fatalf("field %d: cap %d > len %d", i, cap(v), len(v))
			}
			_ = append(v, 0x5A)
		}
		if !sameMessage(m, want) {
			t.Fatalf("an append to one field changed another:\n got %+v\nwant %+v", m, want)
		}
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted message failed to re-marshal: %v (%+v)", err, m)
		}
		m2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshaled bytes failed to parse: %v", err)
		}
		if !sameMessage(m, m2) {
			t.Fatalf("round trip changed message:\n first %+v\nsecond %+v", m, m2)
		}
	})
}

// FuzzMarshalRoundTrip builds messages from fuzzed fields and checks
// that anything Marshal accepts comes back identical through Unmarshal.
func FuzzMarshalRoundTrip(f *testing.F) {
	f.Add(byte(0), byte(1), uint16(7), []byte{1, 2}, "sensors/temp", []byte(`21.5`))
	f.Add(byte(1), byte(69), uint16(0), []byte{}, "", []byte{})
	f.Add(byte(2), byte(132), uint16(65535), []byte{1, 2, 3, 4, 5, 6, 7, 8}, "a/b/c/d", bytes.Repeat([]byte{0xAB}, 64))

	f.Fuzz(func(t *testing.T, typ, code byte, mid uint16, token []byte, path string, payload []byte) {
		m := &Message{Type: Type(typ % 4), Code: Code(code), MessageID: mid, Token: token, Payload: payload}
		if path != "" {
			m.SetPath(path)
		}
		data, err := m.Marshal()
		if err != nil {
			return // invalid field combinations are rejected by contract
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Marshal output failed to parse: %v", err)
		}
		if got.Type != m.Type || got.Code != m.Code || got.MessageID != m.MessageID ||
			!bytes.Equal(got.Token, m.Token) || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("round trip changed message:\n  sent %+v\n   got %+v", m, got)
		}
	})
}

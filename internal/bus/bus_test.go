package bus

import (
	"reflect"
	"testing"
)

// collect subscribes and returns the slice delivered messages land in;
// delivery is inline, so there is nothing to wait for.
func collect(t *testing.T, b *Broker, pattern string) *[]Message {
	t.Helper()
	var msgs []Message
	if _, err := b.Subscribe(pattern, func(m Message) { msgs = append(msgs, m) }); err != nil {
		t.Fatalf("Subscribe(%q): %v", pattern, err)
	}
	return &msgs
}

func TestExactTopicDelivery(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	got := collect(t, b, "obs/dev1/temp")
	if err := b.Publish("obs/dev1/temp", []byte("21"), false); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("obs/dev2/temp", []byte("99"), false); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || string((*got)[0].Payload) != "21" {
		t.Fatalf("got %v", *got)
	}
}

func TestPlusWildcard(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	got := collect(t, b, "obs/+/temp")
	b.Publish("obs/a/temp", []byte("1"), false)
	b.Publish("obs/b/temp", []byte("2"), false)
	b.Publish("obs/a/rpm", []byte("3"), false)    // no match
	b.Publish("obs/a/b/temp", []byte("4"), false) // no match: + is one level
	if len(*got) != 2 {
		t.Fatalf("got %d messages", len(*got))
	}
}

func TestHashWildcard(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	got := collect(t, b, "obs/#")
	b.Publish("obs/a/temp", nil, false)
	b.Publish("obs/a/b/c/d", nil, false)
	b.Publish("cmd/a", nil, false) // no match
	if len(*got) != 2 {
		t.Fatalf("got %d messages", len(*got))
	}
}

func TestRetainedReplay(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	b.Publish("state/valve", []byte("open"), true)
	got := *collect(t, b, "state/valve")
	if len(got) != 1 || string(got[0].Payload) != "open" || !got[0].Retained {
		t.Fatalf("retained replay = %+v", got[0])
	}
	if topics := b.RetainedTopics(); len(topics) != 1 || topics[0] != "state/valve" {
		t.Fatalf("RetainedTopics = %v", topics)
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	count := 0
	sub, err := b.Subscribe("t", func(Message) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	b.Publish("t", nil, false)
	sub.Cancel()
	sub.Cancel() // idempotent
	b.Publish("t", nil, false)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestInvalidPatterns(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for _, p := range []string{"", "a/#/b", "a/x#", "a/x+", "+x/a"} {
		if _, err := b.Subscribe(p, func(Message) {}); err == nil {
			t.Errorf("pattern %q accepted", p)
		}
	}
}

func TestPublishWildcardTopicRejected(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.Publish("a/+/b", nil, false); err == nil {
		t.Fatal("wildcard topic accepted")
	}
}

func TestClosedBroker(t *testing.T) {
	b := NewBroker()
	b.Close()
	b.Close() // idempotent
	if err := b.Publish("t", nil, false); err != ErrClosed {
		t.Fatalf("Publish err = %v", err)
	}
	if _, err := b.Subscribe("t", func(Message) {}); err != ErrClosed {
		t.Fatalf("Subscribe err = %v", err)
	}
}

func TestTopicMatchesTable(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/b/c", false},
		{"a/+", "a/b", true},
		{"a/+", "a", false},
		{"+/+", "a/b", true},
		{"#", "anything/at/all", true},
		{"a/#", "a", true}, // MQTT: '#' also matches the parent level
		{"a/#", "a/b/c", true},
	}
	for _, c := range cases {
		got := topicMatches(splitPat(c.pattern), splitPat(c.topic))
		if got != c.want {
			t.Errorf("match(%q, %q) = %v, want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

func splitPat(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '/' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

// --- inline delivery: order, recursion, replay ---

func TestSyncDeliveryInline(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	var got []string
	if _, err := b.Subscribe("a/#", func(m Message) {
		got = append(got, m.Topic+"="+string(m.Payload))
	}); err != nil {
		t.Fatal(err)
	}
	// The handler has run before Publish returns, so no synchronization
	// or waiting is needed.
	if err := b.Publish("a/b", []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("a/c", []byte("2"), false); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a/b=1" || got[1] != "a/c=2" {
		t.Fatalf("inline delivery got %v", got)
	}
	if b.Delivered() != 2 {
		t.Fatalf("Delivered = %d, want 2", b.Delivered())
	}
}

func TestSyncSubscriptionOrder(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if _, err := b.Subscribe("t", func(Message) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Publish("t", nil, false); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v, want subscription order", order)
		}
	}
}

func TestSyncRecursivePublish(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	var got []string
	if _, err := b.Subscribe("chain/+", func(m Message) {
		got = append(got, m.Topic)
		if m.Topic == "chain/a" {
			// A handler may publish from inside delivery.
			if err := b.Publish("chain/b", nil, false); err != nil {
				t.Errorf("recursive publish: %v", err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("chain/a", nil, false); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "chain/a" || got[1] != "chain/b" {
		t.Fatalf("recursive delivery got %v", got)
	}
}

func TestSyncRetainedReplayInline(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.Publish("r/b", []byte("2"), true); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("r/a", []byte("1"), true); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := b.Subscribe("r/#", func(m Message) {
		if !m.Retained {
			t.Errorf("replayed message %q not marked retained", m.Topic)
		}
		got = append(got, m.Topic)
	}); err != nil {
		t.Fatal(err)
	}
	// Replay happens inline during Subscribe, in sorted topic order.
	if len(got) != 2 || got[0] != "r/a" || got[1] != "r/b" {
		t.Fatalf("retained replay got %v, want [r/a r/b]", got)
	}
}

// TestRetainedCopiesPayload pins the retained-message ownership rule:
// the broker must own the retained payload, so a publisher reusing (or a
// pooled packet path recycling) its slice cannot corrupt later replays.
func TestRetainedCopiesPayload(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	payload := []byte("v1")
	if err := b.Publish("plant/temp", payload, true); err != nil {
		t.Fatal(err)
	}
	payload[0], payload[1] = 'X', 'X' // publisher reuses its buffer
	var got string
	if _, err := b.Subscribe("plant/temp", func(m Message) { got = string(m.Payload) }); err != nil {
		t.Fatal(err)
	}
	if got != "v1" {
		t.Fatalf("retained replay saw %q, want %q (payload not copied)", got, "v1")
	}
}

// RetainedTopics is a listing like any other in the repo: sorted, not
// in map order.
func TestRetainedTopicsSorted(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	want := []string{"a", "b/x", "b/y", "c", "d", "e", "f", "g"}
	for i := len(want) - 1; i >= 0; i-- {
		if err := b.Publish(want[i], nil, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.RetainedTopics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RetainedTopics = %v, want %v", got, want)
	}
}

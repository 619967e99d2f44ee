package gossip

import (
	"reflect"
	"testing"

	"iiotds/internal/coap"
)

// inbox attaches a port that records what it receives.
func inbox(n *Network, name string) (*Port, *[]string) {
	p, got := n.Attach(name), new([]string)
	p.SetReceiver(func(from string, data []byte) { *got = append(*got, from+":"+string(data)) })
	return p, got
}

func TestPortIsTransportAndMessenger(t *testing.T) {
	n := NewNetwork()
	a, _ := inbox(n, "a")
	_, gotB := inbox(n, "b")
	n.Attach("c")

	var tr coap.Transport = a
	var msg Messenger = a
	if tr.LocalAddr() != "a" || msg.Self() != "a" {
		t.Fatalf("LocalAddr %q, Self %q", tr.LocalAddr(), msg.Self())
	}
	if peers := msg.Peers(); !reflect.DeepEqual(peers, []string{"b", "c"}) {
		t.Fatalf("Peers = %v", peers)
	}
	// Delivery is inside the call and copy-on-send: the sender may
	// reuse its buffer, as coap.Transport requires.
	buf := []byte("one")
	if err := tr.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "two")
	if err := msg.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a:one", "a:two"}; !reflect.DeepEqual(*gotB, want) {
		t.Fatalf("b received %v, want %v", *gotB, want)
	}
	if err := a.Send("nobody", nil); err == nil {
		t.Fatal("send to an unattached name succeeded")
	}
}

// Both fault surfaces work on one network, and each counts its own
// losses: a port's drop schedule is checked first and is not a
// partition drop.
func TestPartitionAndDropOnSameNetwork(t *testing.T) {
	n := NewNetwork()
	a, _ := inbox(n, "a")
	_, gotB := inbox(n, "b")
	_, gotC := inbox(n, "c")

	n.SetPartition([]string{"c"})
	a.SetDropEvery(3)
	for i := 0; i < 4; i++ {
		_ = a.Send("b", []byte{'0' + byte(i)}) // sends 1, 3, 5, 7: the 3rd is lost to the schedule
		_ = a.Send("c", []byte{'0' + byte(i)}) // sends 2, 4, 6, 8: the 6th to the schedule, the rest to the partition
	}
	if want := []string{"a:0", "a:2", "a:3"}; !reflect.DeepEqual(*gotB, want) {
		t.Fatalf("b received %v, want %v", *gotB, want)
	}
	if len(*gotC) != 0 || n.Dropped != 3 || a.Sent() != 8 {
		t.Fatalf("c received %v, Dropped %d, Sent %d; want nothing, 3, 8", *gotC, n.Dropped, a.Sent())
	}

	a.SetDropEvery(0)
	a.SetDropFirst(1)
	_ = a.Send("c", []byte("x")) // dropFirst
	_ = a.Send("c", []byte("y")) // partition
	if len(*gotC) != 0 || n.Dropped != 4 {
		t.Fatalf("c received %v, Dropped %d; want nothing and 4", *gotC, n.Dropped)
	}
	n.Heal()
	_ = a.Send("c", []byte("z"))
	if want := []string{"a:z"}; !reflect.DeepEqual(*gotC, want) || n.Dropped != 4 {
		t.Fatalf("after heal c received %v, Dropped %d", *gotC, n.Dropped)
	}
}

func TestCloseDetachesAndDoubleAttachPanics(t *testing.T) {
	n := NewNetwork()
	a, _ := inbox(n, "a")
	b, gotB := inbox(n, "b")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Attach of a live name did not panic")
			}
		}()
		n.Attach("b")
	}()

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("late")); err == nil || len(*gotB) != 0 {
		t.Fatalf("send to a closed port: err %v, delivered %v", err, *gotB)
	}
	if peers := a.Peers(); len(peers) != 0 {
		t.Fatalf("closed port still a peer: %v", peers)
	}
	// The name is free again, and a stale Close does not evict its new holder.
	_, gotB2 := inbox(n, "b")
	_ = b.Close()
	if err := a.Send("b", []byte("hi")); err != nil || len(*gotB2) != 1 {
		t.Fatalf("re-attached port: err %v, delivered %v", err, *gotB2)
	}
}

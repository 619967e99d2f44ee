//go:build linkcheck

package archtest

// The reachability row builds every binary of the tree, about 14 s on a
// cold build cache, so it runs in its own CI step rather than in every
// go test ./...:
//
//	go test -tags linkcheck ./internal/archtest -run 'TestRules|TestCommentsPassRules'

func init() {
	rules = append(rules, rule{
		name:  "every-function-is-reached-by-a-binary",
		files: src("internal/..."),
		check: reachedByBinaries(unreachedAllowed...),
		bad:   plant{"internal/radio/unreached.go", "package radio\n\nfunc Unreached() {}"},
		more: []plant{
			{nmPath, "  4f2a60 T iiotds/internal/coap.(*Resource).Delete\n"},
			{"internal/coap/server.go", "package coap\n\ntype Resource struct{}"},
		},
	})
}

// unreachedAllowed are functions no binary links that stay all the same.
var unreachedAllowed = []allowed{
	{"internal/coap", "Conn.Post", "the client's POST, a verb a real CoAP peer answers"},
	{"internal/coap", "Resource.Post", "a verb a real peer may send; a resource can answer it"},
	{"internal/coap", "Resource.Delete", "a verb a real peer may send; a resource can answer it"},
	{"internal/store", "Replica.Get", "the CP read path, kept until a history checker decides whether CP reads stay"},
	{"internal/store", "cpState.get", "the CP read path, kept until a history checker decides whether CP reads stay"},
	{"internal/store", "apState.get", "the read path's AP side, which modeState requires"},
	{"internal/metrics", "Histogram.read", "the reader constraint of Registry.HistogramWith; no binary snapshots a histogram"},
	{"internal/trace", "Recorder.Count", "exact per-type counts through a ring wrap, which rpl's and store's tests read"},
	{"internal/coap", "Conn.Exchanges", "the in-flight exchange census core's crash tests read"},
	{"internal/netbuf", "Pool.SetPoison", "use-after-release poisoning that mac's and security's tests switch on"},
	{"internal/sim", "Kernel.Pending", "the queue length core's and mac's tests read"},
	{"internal/sim", "ShardGroup.SharedWindows", "how core's and scenario's tests tell a shared window from an inline one"},
	{"internal/radio", "Medium.PRR", "the link model fault's and scenario's tests read back"},
	{"internal/radio", "Medium.Down", "the crash state fault's and scenario's tests read back"},
	{"internal/radio", "Medium.ChannelOf", "the channel core's retune test reads back"},
	{"internal/radio", "Medium.PositionOf", "the position core's deployment tests read back"},
	{"internal/radio", "Medium.AddressRecognition", "the declaration mac's conformance suite reads back"},
	{"internal/fault", "Injector.Partitioned", "the partition state gossip's and scenario's tests read back"},
	{"internal/core", "Node.Profile", "the device class iiotsim's and core's tests read back"},
}

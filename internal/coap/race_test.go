//go:build race

package coap

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of the items put back, so an alloc gate on a path that borrows pooled
// scratch also counts the scratch rebuilt after a drop.
const raceEnabled = true

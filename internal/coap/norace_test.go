//go:build !race

package coap

const raceEnabled = false

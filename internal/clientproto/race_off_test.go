//go:build !race

package clientproto

const raceEnabled = false

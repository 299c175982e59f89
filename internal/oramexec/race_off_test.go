//go:build !race

package oramexec

const raceEnabled = false

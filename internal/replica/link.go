// Package replica implements proxy failover: a lease link from the primary
// proxy to a standby, and promotion. The primary only says it is alive — a
// hello, then a heartbeat every lease/8 while its proxy has not fail-stopped.
// When the heartbeats stop for a lease, the standby fences every storage
// backend and hands the fenced views to core.NewSharded: a promotion is a
// restart, recovering from the durable log on storage like any other (§8).
// No log record crosses the link.
//
// Security: the link carries no sealed bytes and nothing derived from the
// workload — a fixed-size hello and empty heartbeats, so an observer learns
// only the primary's liveness timing.
package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"obladi/internal/wire"
)

// Frame kinds. The link is a stream of internal/wire frames, primary to
// standby.
const (
	// kindHello opens a connection: its id is linkVersion<<32 | shards, its
	// payload the magic and the primary's lease in ms (u32).
	kindHello = uint8(iota + 1)
	// kindHeartbeat renews the standby's lease: id 0, no payload.
	kindHeartbeat
)

const (
	linkMagic = "OBRP"
	// linkVersion 4 moved the link onto the wire format and put the lease in
	// the hello.
	linkVersion = 4
	// helloLen is the hello's frame body, the largest the link carries: the
	// standby's frame limit, so a hostile length prefix is refused before
	// anything is allocated for it.
	helloLen = wire.HeaderLen + len(linkMagic) + 4

	defaultLease = 750 * time.Millisecond
)

// ErrBadHello means the peer did not speak this protocol, or serves another
// deployment: a different shard count or lease.
var ErrBadHello = errors.New("replica: bad hello")

// timings are the link's clocks, each a fraction of the lease. The primary
// heartbeats eight times a lease. The standby gives up on a connection
// silent for two heartbeats, so a half-open link is redialed with most of
// the lease left, redials sixteen times a lease, and bounds a dial by the
// lease itself: a primary it cannot reach for a lease has lost it anyway.
type timings struct {
	heartbeat, readDeadline, redial, dial time.Duration
}

func linkTimings(lease time.Duration) timings {
	return timings{heartbeat: lease / 8, readDeadline: lease / 4, redial: lease / 16, dial: lease}
}

// writeHello announces a primary serving shards shards under lease.
func writeHello(w *bufio.Writer, shards int, lease time.Duration) error {
	ms := binary.BigEndian.AppendUint32(nil, uint32(lease.Milliseconds()))
	return wire.Write(w, kindHello, linkVersion<<32|uint64(shards), nil, linkMagic, ms)
}

// checkHello validates a received hello against the standby's own lease and
// returns the primary's shard count. A primary with a longer lease would
// heartbeat too slowly for the standby, which would promote over it.
func checkHello(b *wire.Buf, lease time.Duration) (int, error) {
	p := b.Payload()
	if b.Kind() != kindHello || b.ID()>>32 != linkVersion || len(p) != len(linkMagic)+4 || string(p[:len(linkMagic)]) != linkMagic {
		return 0, ErrBadHello
	}
	shards := uint32(b.ID())
	if shards == 0 || shards > 1<<16 {
		return 0, fmt.Errorf("%w: implausible shard count %d", ErrBadHello, shards)
	}
	if ms := binary.BigEndian.Uint32(p[len(linkMagic):]); int64(ms) != lease.Milliseconds() {
		return 0, fmt.Errorf("%w: primary's lease is %dms, this standby's %v", ErrBadHello, ms, lease)
	}
	return int(shards), nil
}

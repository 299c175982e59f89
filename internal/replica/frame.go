// Package replica implements proxy failover: a lease link from the primary
// proxy to a standby, and promotion. The primary only says it is alive — a
// hello, then a heartbeat every HeartbeatEvery while its proxy has not
// fail-stopped. When the heartbeats stop for a lease, the standby fences
// every storage backend and hands the fenced views to core.NewSharded: a
// promotion is a restart, recovering from the durable log on storage like
// any other (§8). No log record crosses the link.
//
// Security: the link carries no sealed bytes and nothing derived from the
// workload — a fixed-size hello and empty heartbeats, so an observer learns
// only the primary's liveness timing.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame kinds. The link is a sequence of length-prefixed, crc32c-protected
// frames; torn tails (a frame cut mid-write by a crash or connection drop)
// and corruption are detected per frame.
const (
	// frameHello opens a connection, primary → standby: seq carries the
	// protocol version, shard the primary's shard count, rec the magic.
	frameHello = byte(iota + 1)
	// frameHeartbeat renews the standby's lease.
	frameHeartbeat
)

const (
	frameMagic = "OBRP"
	// frameVersion 3 dropped the log stream: hello and heartbeat are the
	// only frames.
	frameVersion = 3
	// frameHeader is kind + shard + seq; the length prefix and trailing
	// crc32c bracket it and the record bytes.
	frameHeader = 1 + 4 + 8
	// maxFrameLen is the largest legal frame body, the hello's, so a hostile
	// length prefix is refused before anything is allocated for it.
	maxFrameLen = frameHeader + len(frameMagic)
)

var (
	// ErrCorruptFrame means a frame's crc32c did not match its body, or its
	// length prefix was impossible.
	ErrCorruptFrame = errors.New("replica: corrupt frame")
	// ErrTornFrame means the link ended inside a frame.
	ErrTornFrame = errors.New("replica: torn frame at stream tail")
	// ErrBadHello means the peer did not speak this protocol.
	ErrBadHello = errors.New("replica: bad hello")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame is the unit of the lease link.
type frame struct {
	kind  byte
	shard uint32
	seq   uint64
	rec   []byte
}

// writeFrame encodes f as len(u32) | kind | shard | seq | rec | crc32c,
// little-endian, with the crc covering everything between len and crc.
func writeFrame(w io.Writer, f frame) error {
	body := frameHeader + len(f.rec)
	buf := make([]byte, 4+body+4)
	binary.LittleEndian.PutUint32(buf, uint32(body))
	buf[4] = f.kind
	binary.LittleEndian.PutUint32(buf[5:], f.shard)
	binary.LittleEndian.PutUint64(buf[9:], f.seq)
	copy(buf[4+frameHeader:], f.rec)
	crc := crc32.Checksum(buf[4:4+body], crcTable)
	binary.LittleEndian.PutUint32(buf[4+body:], crc)
	_, err := w.Write(buf)
	return err
}

// readFrame decodes the next frame. A clean end-of-stream between frames
// returns io.EOF; a stream that ends inside a frame returns ErrTornFrame.
func readFrame(r io.Reader) (frame, error) {
	var buf [4 + maxFrameLen + 4]byte
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if err == io.EOF {
			return frame{}, io.EOF
		}
		return frame{}, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	body := int(binary.LittleEndian.Uint32(buf[:4]))
	if body < frameHeader || body > maxFrameLen {
		return frame{}, fmt.Errorf("%w: implausible frame length %d", ErrCorruptFrame, body)
	}
	b := buf[4 : 4+body+4]
	if _, err := io.ReadFull(r, b); err != nil {
		return frame{}, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	if crc32.Checksum(b[:body], crcTable) != binary.LittleEndian.Uint32(b[body:]) {
		return frame{}, ErrCorruptFrame
	}
	f := frame{
		kind:  b[0],
		shard: binary.LittleEndian.Uint32(b[1:]),
		seq:   binary.LittleEndian.Uint64(b[5:]),
	}
	if body > frameHeader {
		f.rec = b[frameHeader:body]
	}
	return f, nil
}

// helloFrame builds the handshake frame for a primary serving shards shards.
func helloFrame(shards int) frame {
	return frame{kind: frameHello, shard: uint32(shards), seq: frameVersion, rec: []byte(frameMagic)}
}

// checkHello validates a received handshake and returns the shard count.
func checkHello(f frame) (int, error) {
	if f.kind != frameHello || string(f.rec) != frameMagic || f.seq != frameVersion {
		return 0, ErrBadHello
	}
	if f.shard == 0 || f.shard > 1<<16 {
		return 0, fmt.Errorf("%w: implausible shard count %d", ErrBadHello, f.shard)
	}
	return int(f.shard), nil
}

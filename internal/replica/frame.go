// Package replica implements proxy hot-standby replication: the primary
// proxy streams its recovery log — the WAL of §8, whose records already
// capture everything recovery needs — over TCP to a standby that replays it
// into warm per-shard log copies. On lease expiry the standby fences the
// storage backends, tops its copies up from the durable log tail, and runs
// the ordinary wal recovery over them, so promotion costs one fence
// round-trip plus a tail scan instead of a full log scan.
//
// Security: the stream carries only sealed log records (AES-GCM under the
// proxy key) plus plaintext framing the untrusted store already sees —
// record kinds, sizes, and timing. An observer of the replication link
// learns nothing an observer of the storage link could not.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame kinds. The stream is a sequence of length-prefixed, crc32c-protected
// frames; torn tails (a frame cut mid-write by a crash or connection drop)
// and corruption are detected per frame, so a standby never applies a
// partial record.
const (
	// frameHello opens a connection, primary → standby: seq carries the
	// protocol version, shard the primary's shard count, rec the magic.
	frameHello = byte(iota + 1)
	// frameRecord mirrors one log record: shard and seq name its slot in
	// that shard's store log, rec is the sealed record verbatim.
	frameRecord
	// frameHeartbeat is sent when the stream is idle so the standby's lease
	// clock keeps running without traffic.
	frameHeartbeat
	// frameSyncpoint asks the standby to ack immediately (barrier probe).
	frameSyncpoint
	// frameAck, standby → primary: seq is the cumulative count of stream
	// frames (records and truncations) received on this connection; the
	// sender adds the stream offset the connection started at.
	frameAck
	// frameFloor opens a connection's stream, one per shard, before any
	// stream frame: seq is the first sequence number the primary's log for
	// shard still retains. A standby whose copy ends below it restarts the
	// copy there — the records in between exist nowhere any more, and a
	// full checkpoint heads what remains. Not a stream frame: not counted
	// in acks.
	frameFloor
	// frameTruncate is a stream frame: the primary truncated shard's log
	// below seq, in this position relative to the records around it.
	frameTruncate
)

const (
	frameMagic = "OBRP"
	// frameVersion 2 added frameFloor/frameTruncate and made acks relative
	// to the connection's starting offset.
	frameVersion = 2
	// maxFrameLen bounds a frame body so a corrupt length prefix cannot
	// drive an unbounded allocation. Records are epoch-sized (a write-batch
	// schedule or a padded checkpoint), far under this.
	maxFrameLen = 64 << 20
)

var (
	// ErrCorruptFrame means a frame's crc32c did not match its body.
	ErrCorruptFrame = errors.New("replica: frame failed crc32c check")
	// ErrTornFrame means the stream ended inside a frame — the partial
	// frame is discarded, never partially applied.
	ErrTornFrame = errors.New("replica: torn frame at stream tail")
	// ErrBadHello means the peer did not speak this protocol.
	ErrBadHello = errors.New("replica: bad hello")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame is the unit of the replication stream.
type frame struct {
	kind  byte
	shard uint32
	seq   uint64
	rec   []byte
}

// frameHeader is kind + shard + seq; the length prefix and trailing crc32c
// bracket it and the record bytes.
const frameHeader = 1 + 4 + 8

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
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return frame{}, io.EOF
		}
		return frame{}, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	body := binary.LittleEndian.Uint32(lenBuf[:])
	if body < frameHeader || body > maxFrameLen {
		return frame{}, fmt.Errorf("%w: implausible frame length %d", ErrCorruptFrame, body)
	}
	buf := make([]byte, body+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	crc := binary.LittleEndian.Uint32(buf[body:])
	if crc32.Checksum(buf[:body], crcTable) != crc {
		return frame{}, ErrCorruptFrame
	}
	f := frame{
		kind:  buf[0],
		shard: binary.LittleEndian.Uint32(buf[1:]),
		seq:   binary.LittleEndian.Uint64(buf[5:]),
	}
	if body > frameHeader {
		f.rec = buf[frameHeader:body]
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

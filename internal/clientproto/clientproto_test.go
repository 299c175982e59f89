package clientproto_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/enginetest"
	"obladi/internal/kvtxn"
)

// newStack builds a full stack: Obladi proxy over checked storage, served
// through the client protocol, and a client connected to it.
func newStack(t *testing.T) *clientproto.MuxClient {
	return newShardedStack(t, 1)
}

// newServer builds the protocol server over a fresh Obladi engine.
func newServer(t *testing.T, shards int) *clientproto.Server {
	t.Helper()
	eng, err := enginetest.NewObladi(enginetest.ObladiOptions{NumBlocks: 256, ValueSize: 64, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := clientproto.NewServer(eng.DB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.DB.Close()
		if v := eng.Violation(); v != nil {
			t.Error(v)
		}
	})
	return srv
}

// newShardedStack is newStack over a hash-partitioned proxy.
func newShardedStack(t *testing.T, shards int) *clientproto.MuxClient {
	t.Helper()
	srv := newServer(t, shards)
	c, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// Frame kinds and reply codes, as the wire carries them.
const (
	kindBegin  = 1
	kindRead   = 2
	kindWrite  = 3
	kindDelete = 4
	kindCommit = 5
	kindAbort  = 6
	kindOK     = 0x80
	kindErr    = 0x81
)

// rawConn speaks the protocol by hand, for tests that need frames a
// MuxClient cannot produce.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

// dialRaw connects and sends the magic.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte("\x00OB2")); err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, conn: conn}
}

func (c *rawConn) send(kind byte, session, req uint32, payload []byte) {
	c.t.Helper()
	buf := binary.BigEndian.AppendUint32(nil, uint32(9+len(payload)))
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, session)
	buf = binary.BigEndian.AppendUint32(buf, req)
	if _, err := c.conn.Write(append(buf, payload...)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawConn) recv() (kind byte, session, req uint32, payload []byte) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(c.conn, hdr); err != nil {
		c.t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr))
	if _, err := io.ReadFull(c.conn, body); err != nil {
		c.t.Fatal(err)
	}
	return body[0], binary.BigEndian.Uint32(body[1:5]), binary.BigEndian.Uint32(body[5:9]), body[9:]
}

// writePayload is a WRITE frame's payload: klen(u32) | key | value.
func writePayload(key string, value []byte) []byte {
	return append(append(binary.BigEndian.AppendUint32(nil, uint32(len(key))), key...), value...)
}

// TestProtocolShardedStack drives the wire protocol against a 4-shard proxy:
// one session's transaction spans every shard.
func TestProtocolShardedStack(t *testing.T) {
	db := clientproto.MuxDB{C: newShardedStack(t, 4)}
	must(t, kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		for i := 0; i < 16; i++ {
			if err := tx.Write(fmt.Sprintf("shard-key-%d", i), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	}))
	// Dependent reads cost one batch each, so read back one key per
	// transaction rather than all sixteen in one epoch. A read landing on an
	// epoch boundary aborts by fate sharing; the retries are a real client's.
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("shard-key-%d", i)
		must(t, kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
			v, found, err := tx.Read(key)
			if err != nil {
				return err
			}
			if !found || len(v) != 1 || v[0] != byte(i) {
				t.Fatalf("%s: %v %v", key, v, found)
			}
			return nil
		}))
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	db := clientproto.MuxDB{C: newStack(t)}
	must(t, kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		if err := tx.Write("hello", []byte("world")); err != nil {
			return err
		}
		v, found, err := tx.Read("hello")
		if err == nil && (!found || string(v) != "world") {
			t.Fatalf("read own write: %q %v", v, found)
		}
		return err
	}))
	must(t, kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		v, found, err := tx.Read("hello")
		if err != nil {
			return err
		}
		if !found || string(v) != "world" {
			t.Fatalf("read after commit: %q %v", v, found)
		}
		if _, found, err = tx.Read("absent"); err != nil {
			return err
		}
		if found {
			t.Fatal("absent key found")
		}
		return tx.Delete("hello")
	}))
	must(t, kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		_, found, err := tx.Read("hello")
		if err == nil && found {
			t.Fatal("deleted key visible")
		}
		return err
	}))
}

// TestProtocolErrors sends what a MuxClient never would: an op on a session
// that was never opened, a double BEGIN, an unknown frame kind and a WRITE
// whose key length runs past its frame. Each gets an error reply, the
// malformed WRITE aborts its session, and the connection stays in sync.
func TestProtocolErrors(t *testing.T) {
	raw := dialRaw(t, newServer(t, 1).Addr())
	expect := func(what string, wantKind byte, req uint32) string {
		t.Helper()
		kind, session, gotReq, payload := raw.recv()
		if kind != wantKind || session != 1 || gotReq != req {
			t.Fatalf("%s: kind=%#x session=%d req=%d %q, want kind %#x for req %d", what, kind, session, gotReq, payload, wantKind, req)
		}
		return string(payload)
	}
	raw.send(kindRead, 1, 1, []byte("x"))
	if msg := expect("read without a session", kindErr, 1); !strings.Contains(msg, "no such session") {
		t.Fatalf("read without a session: %q", msg)
	}
	raw.send(kindBegin, 1, 2, nil)
	expect("begin", kindOK, 2)
	raw.send(kindBegin, 1, 3, nil)
	expect("double begin", kindErr, 3)
	raw.send(0x42, 1, 4, nil)
	if msg := expect("unknown kind", kindErr, 4); !strings.Contains(msg, "unknown frame kind") {
		t.Fatalf("unknown kind: %q", msg)
	}
	raw.send(kindWrite, 1, 5, binary.BigEndian.AppendUint32(nil, 1000))
	expect("malformed write", kindErr, 5)
	raw.send(kindRead, 1, 6, []byte("x"))
	if msg := expect("read after a refused write", kindErr, 6); !strings.Contains(msg, "aborted at a refused write") {
		t.Fatalf("read after a refused write: %q", msg)
	}
	raw.send(kindAbort, 1, 7, nil)
	expect("abort", kindOK, 7)
}

func TestProtocolAbortDiscards(t *testing.T) {
	mc := newStack(t)
	tx := mc.Begin()
	must(t, tx.Write("tmp", []byte("x")))
	tx.Abort()
	must(t, kvtxn.RunWithRetries(clientproto.MuxDB{C: mc}, 10, func(tx kvtxn.Txn) error {
		_, found, err := tx.Read("tmp")
		if err == nil && found {
			t.Fatal("aborted write visible")
		}
		return err
	}))
}

// TestProtocolConcurrentSessions commits from two connections and reads both
// writes back from one.
func TestProtocolConcurrentSessions(t *testing.T) {
	srv := newServer(t, 1)
	var dbs [2]kvtxn.DB
	for i := range dbs {
		c, err := clientproto.DialMux(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		dbs[i] = clientproto.MuxDB{C: c}
	}
	for i, kv := range [][2]string{{"a", "1"}, {"b", "2"}} {
		must(t, kvtxn.RunWithRetries(dbs[i], 10, func(tx kvtxn.Txn) error {
			return tx.Write(kv[0], []byte(kv[1]))
		}))
	}
	must(t, kvtxn.RunWithRetries(dbs[0], 10, func(tx kvtxn.Txn) error {
		res, err := tx.ReadMany([]string{"a", "b"})
		if err != nil {
			return err
		}
		if string(res[0].Value) != "1" || string(res[1].Value) != "2" {
			t.Fatalf("a=%q b=%q", res[0].Value, res[1].Value)
		}
		return nil
	}))
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

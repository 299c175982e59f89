package clientproto

import (
	"fmt"
	"net"

	"obladi/internal/kvtxn"
)

// NewServerCaps is NewServer on a loopback port with the per-connection caps
// set below their production values, so tests can drive a server past them.
func NewServerCaps(db kvtxn.DB, maxSessions, maxPendingReads int) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("clientproto: listen: %w", err)
	}
	return newServer(db, ln, maxSessions, maxPendingReads), nil
}

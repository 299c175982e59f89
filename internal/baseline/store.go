package baseline

import (
	"strings"
	"sync"

	"obladi/internal/storage"
)

// Store is the plain (non-oblivious) key-value namespace a baseline runs
// over: the remote store of §11's NoPriv and MySQL systems.
type Store interface {
	// Get returns key's value, which the caller may keep and modify.
	Get(key string) (value []byte, found bool, err error)
	// Put stores value under key.
	Put(key string, value []byte) error
	// Delete removes key; deleting a missing key is no error.
	Delete(key string) error
}

// MemStore is a Store in memory, paced like a remote store of a
// storage.Profile: each Get pays the profile's Read delay and each Put or
// Delete its Write delay, at most MaxConcurrent calls at once, through the
// storage.Pacer a storage.Latency paces the ORAM's calls with. Like the
// remote store it models, it keeps its own copy of every key and value it is
// handed and hands out copies. It is safe for concurrent use.
type MemStore struct {
	prof storage.Profile
	pace *storage.Pacer

	mu sync.Mutex
	m  map[string][]byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty store paced by prof (the zero Profile, or
// storage.ProfileDummy, does not pace).
func NewMemStore(prof storage.Profile) *MemStore {
	return &MemStore{prof: prof, pace: storage.NewPacer(prof.MaxConcurrent), m: make(map[string][]byte)}
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, bool, error) {
	defer s.pace.Pace(s.prof.Read)()
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	return append(make([]byte, 0, len(v)), v...), true, nil
}

// Put implements Store.
func (s *MemStore) Put(key string, value []byte) error {
	defer s.pace.Pace(s.prof.Write)()
	v := append(make([]byte, 0, len(value)), value...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[strings.Clone(key)] = v
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	defer s.pace.Pace(s.prof.Write)()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

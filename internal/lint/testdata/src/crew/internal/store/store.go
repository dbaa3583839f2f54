// Package store is a minimal stub of crew/internal/store for the analyzer
// tests: method names match the real WAL-backed store.
package store

type Store struct{}

type Op struct {
	Key   string
	Value []byte
}

func (s *Store) Put(key string, val []byte) error { return nil }
func (s *Store) Delete(key string) error          { return nil }
func (s *Store) Apply(ops []Op) error             { return nil }

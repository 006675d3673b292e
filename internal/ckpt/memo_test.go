package ckpt

import (
	"bytes"
	"testing"
)

func TestMemoLookupStore(t *testing.T) {
	s := NewStore(t.TempDir(), false)
	m, err := s.Memo("sweep", testSpace("memo"), testKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Lookup(0); ok {
		t.Fatal("hit on an empty journal")
	}
	if err := m.Store(0, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	v, ok := m.Lookup(0)
	if !ok || !bytes.Equal(v, []byte(`{"x":1}`)) {
		t.Fatalf("lookup after store: %q ok=%v", v, ok)
	}
	if c := s.Counters(); c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters %+v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

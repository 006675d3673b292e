package ckpt

// Memo adapts one sweep's journal to the runner pool's memoization
// hook (runner.Memo, satisfied structurally so ckpt stays independent
// of the pool): jobs are keyed by index, and the index→fingerprint
// mapping is owned by the sweep driver via the key function. The
// store's Counters record each lookup's hit or miss.
type Memo struct {
	j   *Journal
	key func(int) Key
}

// Memo opens the named journal in the store and binds it to a job
// index → cell fingerprint mapping.
func (s *Store) Memo(name string, space Key, key func(int) Key) (*Memo, error) {
	j, err := s.Journal(name, space)
	if err != nil {
		return nil, err
	}
	return &Memo{j: j, key: key}, nil
}

// Lookup consults the journal for job i's cached result.
func (m *Memo) Lookup(i int) ([]byte, bool) { return m.j.Get(m.key(i)) }

// Store journals job i's freshly computed result.
func (m *Memo) Store(i int, data []byte) error {
	return m.j.Put(m.key(i), data)
}

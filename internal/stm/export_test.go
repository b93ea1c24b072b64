package stm

// WithCommitHook installs a function that runs inside every writer
// commit between read-set validation and the status CAS. Compiled
// into the test binary only: it lets serializability tests
// deterministically park one committing writer inside the window the
// striped commit protocol must keep exclusive, which on a single-CPU
// host no amount of goroutine timing can otherwise reach.
func WithCommitHook(f func()) Option {
	return func(s *STM) { s.commitHook = f }
}

// WithOpenHook installs a function that runs in every eager open
// between the attempt's status check and its locator load, so a test
// can abort the attempt and commit an enemy write inside that window.
func WithOpenHook(f func(tx *Tx, o *TObj)) Option {
	return func(s *STM) { s.openHook = f }
}

// SetReadGen sets the read-set generation of every session of s. Call
// it only while no transaction runs on s.
func SetReadGen(s *STM, gen uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		sess.reads.gen = gen
	}
}

// ReadSetFootprint reports what the read sets of s's sessions keep
// between transactions: the non-nil object and Value slots in their
// backing arrays, and the largest array capacity. Call it only while
// no transaction runs on s.
func ReadSetFootprint(s *STM) (pins, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		rs := &sess.reads
		capacity = max(capacity, cap(rs.objs))
		for _, o := range rs.objs[:cap(rs.objs)] {
			if o != nil {
				pins++
			}
		}
		for _, v := range rs.vals[:cap(rs.vals)] {
			if v != nil {
				pins++
			}
		}
	}
	return pins, capacity
}

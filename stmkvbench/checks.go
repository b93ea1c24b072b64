package main

import (
	"slices"
	"strconv"
)

// pipelinedCheck verifies kv-pipelined-read replies: every GET and
// MGET reply is nil or a value tagged with its own key, SET answers
// OK, INCR an integer. It counts acked INCRs for the final audit.
type pipelinedCheck struct {
	ks    *keyspace
	incrs int64
}

func (pc *pipelinedCheck) readOp(c *conn, r *reply, s *stream, o op) (bool, error) {
	if err := c.read(r); err != nil {
		return false, err
	}
	if r.kind == '-' {
		return true, nil
	}
	switch o.kind {
	case opGet:
		if !r.null && (r.kind != '$' || !valueTagged(r.str, pc.ks.keys[o.a])) {
			return false, violation("GET %s returned %s", pc.ks.keys[o.a], r.describe())
		}
	case opSet:
		if r.kind != '+' {
			return false, violation("SET %s returned %s", pc.ks.keys[o.a], r.describe())
		}
	case opMGet:
		keys := s.mget[o.n : o.n+mgetKeys]
		if r.kind != '*' || r.n != mgetKeys {
			return false, violation("MGET returned %s", r.describe())
		}
		for i, k := range keys {
			e := &r.elems[i]
			if !e.null && (e.kind != '$' || !valueTagged(e.str, pc.ks.keys[k])) {
				return false, violation("MGET element %d (%s) is %s", i, pc.ks.keys[k], e.describe())
			}
		}
	case opIncr:
		if r.kind != ':' || r.n < 1 {
			return false, violation("INCR %s returned %s", pc.ks.counters[o.a], r.describe())
		}
		pc.incrs++
	}
	return false, nil
}

// auditCounters checks that the INCR counters sum to the acked INCRs.
func auditCounters(c *conn, ks *keyspace, streams []stream, incrs int64) error {
	touched := make(map[int32]bool)
	for _, s := range streams {
		for _, o := range s.ops {
			if o.kind == opIncr {
				touched[o.a] = true
			}
		}
	}
	idx := make([]int32, 0, len(touched))
	for k := range touched {
		idx = append(idx, k)
	}
	slices.Sort(idx)
	var sum int64
	var r reply
	for len(idx) > 0 {
		n := min(len(idx), preloadBat)
		args := []string{"MGET"}
		for _, k := range idx[:n] {
			args = append(args, ks.counters[k])
		}
		if err := c.must(&r, args...); err != nil {
			return err
		}
		for i := range n {
			if e := &r.elems[i]; !e.null {
				v, err := strconv.ParseInt(string(e.str), 10, 64)
				if err != nil {
					return violation("counter %s holds %q", args[1+i], e.str)
				}
				sum += v
			}
		}
		idx = idx[n:]
	}
	if sum != incrs {
		return violation("INCR counters sum to %d, %d INCRs were acked", sum, incrs)
	}
	return nil
}

// durableModel is one connection's expected state of the keys it owns
// in kv-durable-write, advanced only by acked replies. Every reply on
// those keys is predicted exactly; the shared accounts are checked by
// conservation.
type durableModel struct {
	ks    *keyspace
	ci    int
	sets  map[int32]int32 // key index -> version of its last acked SET
	ctrs  []int64
	lists [][]int32 // pushed sequence numbers, oldest first
	zsets [][]int32 // score per member, -1 when absent
	// userBytes sums the payload of acked writes (wal.bytes_per_user_byte).
	userBytes int64
}

func newDurableModel(ks *keyspace, ci int) *durableModel {
	m := &durableModel{ks: ks, ci: ci, sets: make(map[int32]int32), ctrs: make([]int64, countersPer),
		lists: make([][]int32, listsPer), zsets: make([][]int32, zsetsPer)}
	for i := range m.zsets {
		m.zsets[i] = slices.Repeat([]int32{-1}, zsetMembers)
	}
	return m
}

func (m *durableModel) readOp(c *conn, r *reply, s *stream, o op) (bool, error) {
	if o.kind == opTransfer {
		failed, err := m.readTransfer(c, r)
		if err == nil && !failed {
			m.userBytes += m.ks.userBytes(m.ci, o)
		}
		return failed, err
	}
	if err := c.read(r); err != nil {
		return false, err
	}
	if r.kind == '-' {
		return true, nil
	}
	ks := m.ks
	switch o.kind {
	case opSet:
		if r.kind != '+' {
			return false, violation("SET %s returned %s", ks.keys[o.a], r.describe())
		}
		m.sets[o.a] = o.n
	case opIncrBy:
		want := m.ctrs[o.a] + int64(o.n)
		if r.kind != ':' || r.n != want {
			return false, violation("INCRBY %s returned %s, want %d", ks.ctrs[m.ci][o.a], r.describe(), want)
		}
		m.ctrs[o.a] = want
	case opLPush:
		want := int64(len(m.lists[o.a]) + 1)
		if r.kind != ':' || r.n != want {
			return false, violation("LPUSH %s returned %s, want %d", ks.lists[m.ci][o.a], r.describe(), want)
		}
		m.lists[o.a] = append(m.lists[o.a], o.n)
	case opRPop:
		q := m.lists[o.a]
		if len(q) == 0 {
			if !r.null {
				return false, violation("RPOP of empty %s returned %s", ks.lists[m.ci][o.a], r.describe())
			}
			return false, nil
		}
		if r.kind != '$' || r.null || string(r.str) != strconv.Itoa(int(q[0])) {
			return false, violation("RPOP %s returned %s, want %d", ks.lists[m.ci][o.a], r.describe(), q[0])
		}
		m.lists[o.a] = q[1:]
	case opZAdd:
		want := int64(0)
		if m.zsets[o.a][o.b] < 0 {
			want = 1
		}
		if r.kind != ':' || r.n != want {
			return false, violation("ZADD %s %s returned %s, want %d", ks.zsets[m.ci][o.a], ks.members[o.b], r.describe(), want)
		}
		m.zsets[o.a][o.b] = o.n
	}
	m.userBytes += ks.userBytes(m.ci, o)
	return false, nil
}

// readTransfer reads MULTI's OK, four QUEUED and EXEC's four integers.
func (m *durableModel) readTransfer(c *conn, r *reply) (bool, error) {
	failed := false
	for i := range 6 {
		if err := c.read(r); err != nil {
			return false, err
		}
		switch {
		case r.kind == '-':
			failed = true
		case i == 0 && r.kind != '+', i > 0 && i < 5 && (r.kind != '+' || string(r.str) != "QUEUED"):
			return false, violation("transfer reply %d is %s", i, r.describe())
		case i == 5:
			if r.kind != '*' || r.n != 4 {
				return false, violation("EXEC returned %s", r.describe())
			}
			for j := range 4 {
				if r.elems[j].kind != ':' {
					return false, violation("EXEC element %d is %s", j, r.elems[j].describe())
				}
			}
		}
	}
	return failed, nil
}

// auditDurable checks the whole durable keyspace against the models:
// conservation of the account and ledger sums (each account equal to
// its ledger field), every owned counter, list, zset and string value.
func auditDurable(c *conn, ks *keyspace, models []*durableModel) error {
	var r reply
	args := append([]string{"MGET"}, ks.accts...)
	if err := c.must(&r, args...); err != nil {
		return err
	}
	acct := make([]int64, accounts)
	var sum int64
	for i := range accounts {
		v, err := strconv.ParseInt(string(r.elems[i].str), 10, 64)
		if err != nil || r.elems[i].null {
			return violation("account %s is %s", ks.accts[i], r.elems[i].describe())
		}
		acct[i], sum = v, sum+v
	}
	if sum != accounts*accountStart {
		return violation("accounts sum to %d, want %d", sum, accounts*accountStart)
	}
	for i := range accounts {
		if err := c.must(&r, "HGET", "ledger", ks.fields[i]); err != nil {
			return err
		}
		v, err := strconv.ParseInt(string(r.str), 10, 64)
		if err != nil || v != acct[i] {
			return violation("ledger %s is %s, account holds %d", ks.fields[i], r.describe(), acct[i])
		}
	}
	for _, m := range models {
		if err := m.audit(c, &r); err != nil {
			return err
		}
	}
	// String keys: the preload wrote version 0 everywhere; each SET
	// since then is known per key.
	owner := func(k int) *durableModel { return models[k%len(models)] }
	for b := 0; b < len(ks.keys); b += preloadBat {
		end := min(b+preloadBat, len(ks.keys))
		if err := c.must(&r, append([]string{"MGET"}, ks.keys[b:end]...)...); err != nil {
			return err
		}
		for i := b; i < end; i++ {
			e := &r.elems[i-b]
			want := owner(i).sets[int32(i)]
			if e.null || !valueTagged(e.str, ks.keys[i]) {
				return violation("%s is %s, want version %d", ks.keys[i], e.describe(), want)
			}
			if v, ok := valueVersion(e.str, ks.keys[i]); !ok || v != want {
				return violation("%s holds version %d, want %d", ks.keys[i], v, want)
			}
		}
	}
	return nil
}

func (m *durableModel) audit(c *conn, r *reply) error {
	ks := m.ks
	for i, name := range ks.ctrs[m.ci] {
		if err := c.must(r, "GET", name); err != nil {
			return err
		}
		got := int64(0)
		if !r.null {
			v, err := strconv.ParseInt(string(r.str), 10, 64)
			if err != nil {
				return violation("%s holds %q", name, r.str)
			}
			got = v
		}
		if got != m.ctrs[i] {
			return violation("%s is %d, acked INCRBYs sum to %d", name, got, m.ctrs[i])
		}
	}
	for i, name := range ks.lists[m.ci] {
		if err := c.must(r, "LRANGE", name, "0", "-1"); err != nil {
			return err
		}
		q := m.lists[i]
		if r.n != int64(len(q)) {
			return violation("%s has %d elements, acked pushes minus pops leave %d", name, r.n, len(q))
		}
		for j := range q {
			// LPUSH adds at the front, so LRANGE lists newest first.
			if want := strconv.Itoa(int(q[len(q)-1-j])); string(r.elems[j].str) != want {
				return violation("%s[%d] is %s, want %s", name, j, r.elems[j].describe(), want)
			}
		}
	}
	for i, name := range ks.zsets[m.ci] {
		for j, score := range m.zsets[i] {
			if score < 0 {
				continue
			}
			if err := c.must(r, "ZSCORE", name, ks.members[j]); err != nil {
				return err
			}
			got, err := strconv.ParseFloat(string(r.str), 64)
			if r.null || err != nil || got != float64(score) {
				return violation("ZSCORE %s %s is %s, last acked ZADD wrote %d", name, ks.members[j], r.describe(), score)
			}
		}
		want := 0
		for _, s := range m.zsets[i] {
			if s >= 0 {
				want++
			}
		}
		if err := c.must(r, "ZCARD", name); err != nil {
			return err
		}
		if r.n != int64(want) {
			return violation("ZCARD %s is %d, acked ZADDs added %d members", name, r.n, want)
		}
	}
	return nil
}

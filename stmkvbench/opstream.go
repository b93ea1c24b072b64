package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/internal/workload"
)

// opKind names one client operation of the kv workloads.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opMGet
	opIncr
	opIncrBy
	opTransfer // MULTI, INCRBY -x/+x, HINCRBY -x/+x on the ledger, EXEC
	opLPush
	opRPop
	opZAdd
	numOpKinds
)

var opNames = [numOpKinds]string{"GET", "SET", "MGET", "INCR", "INCRBY", "TRANSFER", "LPUSH", "RPOP", "ZADD"}

// op is one generated operation. The meaning of a, b and n depends on
// the kind:
//
//	GET, SET     a = key index; n = SET version (0 is the preload)
//	MGET         n = offset of its keys in stream.mget
//	INCR         a = counter index
//	INCRBY       a = counter index, n = delta
//	TRANSFER     a = from account, b = to account, n = amount
//	LPUSH        a = list index, n = pushed sequence number
//	RPOP         a = list index
//	ZADD         a = zset index, b = member, n = score
type op struct {
	kind opKind
	a, b int32
	n    int32
}

// stream is one connection's operations, generated before the run.
type stream struct {
	ops  []op
	mget []int32
	// gaps are kv-durable-write's exponential inter-arrival times, in
	// units of the mean: Poisson arrivals, as from independent users.
	gaps []float64
}

// streamGaps is how many arrival gaps a stream holds; they are replayed
// cyclically.
const streamGaps = 1 << 16

func drawGaps(rng *rand.Rand) []float64 {
	g := make([]float64, streamGaps)
	for i := range g {
		g[i] = rng.ExpFloat64()
	}
	return g
}

const (
	valueSize  = 100 // bytes per string value, key tag included
	mgetKeys   = 8
	preloadBat = 500 // MSET pairs per request; the server caps a frame at 1024 arguments
)

// Durable keyspace shape: per-connection containers keep every reply
// predictable, the shared accounts make transfers contend.
const (
	accounts      = 64
	accountStart  = 1000
	countersPer   = 256
	listsPer      = 16
	zsetsPer      = 16
	zsetMembers   = 1000
	maxTransferBy = 50
)

// keyspace names the keys of a kv workload once, so the request
// encoders never format.
type keyspace struct {
	keys     []string // string keys, preloaded with valueSize-byte values
	counters []string // pipelined INCR targets
	// Durable only, indexed [conn][i].
	ctrs, lists, zsets [][]string
	members            []string
	accts, fields      []string
}

func newKeyspace(nkeys, conns int, durable bool) *keyspace {
	ks := &keyspace{keys: make([]string, nkeys)}
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("k:%06d", i)
	}
	if !durable {
		ks.counters = make([]string, nkeys)
		for i := range ks.counters {
			ks.counters[i] = fmt.Sprintf("n:%06d", i)
		}
		return ks
	}
	for c := 0; c < conns; c++ {
		ks.ctrs = append(ks.ctrs, names(fmt.Sprintf("c:%d:", c), countersPer))
		ks.lists = append(ks.lists, names(fmt.Sprintf("q:%d:", c), listsPer))
		ks.zsets = append(ks.zsets, names(fmt.Sprintf("z:%d:", c), zsetsPer))
	}
	ks.members = names("m:", zsetMembers)
	ks.accts = names("acct:", accounts)
	ks.fields = names("a", accounts)
	return ks
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// valueFiller pads values to valueSize.
var valueFiller = bytes.Repeat([]byte{'x'}, valueSize)

// appendValue appends key's value at version n: "<key>|<n>" padded
// to valueSize, so any reader can tell whose value it holds.
func appendValue(b []byte, key string, n int32) []byte {
	start := len(b)
	b = append(b, key...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '|')
	return append(b, valueFiller[:valueSize-(len(b)-start)]...)
}

// valueTagged reports whether v is a value written for key.
func valueTagged(v []byte, key string) bool {
	return len(v) == valueSize && len(v) > len(key) && string(v[:len(key)]) == key && v[len(key)] == '|'
}

// valueVersion returns the version a tagged value carries.
func valueVersion(v []byte, key string) (int32, bool) {
	rest := v[len(key)+1:]
	i := bytes.IndexByte(rest, '|')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(string(rest[:i]), 10, 32)
	return int32(n), err == nil
}

// pipelinedStreams draws each connection's kv-pipelined-read stream:
// 80% GET, 10% SET, 5% MGET of mgetKeys keys, 5% INCR, keys
// zipf(0.99) over the preloaded keyspace.
func pipelinedStreams(seed uint64, conns, n, nkeys int) ([]stream, error) {
	z, err := workload.NewZipf(nkeys, 0.99)
	if err != nil {
		return nil, err
	}
	out := make([]stream, conns)
	for c := range out {
		rng := rand.New(rand.NewPCG(seed, uint64(c)))
		s := stream{ops: make([]op, n)}
		for i := range s.ops {
			o := &s.ops[i]
			switch p := rng.IntN(100); {
			case p < 80:
				o.kind, o.a = opGet, int32(z.Sample(rng))
			case p < 90:
				o.kind, o.a = opSet, int32(z.Sample(rng))
			case p < 95:
				o.kind, o.n = opMGet, int32(len(s.mget))
				for j := 0; j < mgetKeys; j++ {
					s.mget = append(s.mget, int32(z.Sample(rng)))
				}
			default:
				o.kind, o.a = opIncr, int32(z.Sample(rng))
			}
		}
		out[c] = s
	}
	return out, nil
}

// durableStreams draws each connection's kv-durable-write stream: 40%
// SET, 20% INCRBY, 20% MULTI/EXEC transfers, 5% LPUSH, 5% RPOP, 10%
// ZADD. SETs hit keys zipf(0.99) over the connection's half of the
// keyspace (key = 2*rank + conn), so every final value is known.
func durableStreams(seed uint64, conns, n, nkeys int) ([]stream, error) {
	z, err := workload.NewZipf(nkeys/conns, 0.99)
	if err != nil {
		return nil, err
	}
	out := make([]stream, conns)
	for c := range out {
		rng := rand.New(rand.NewPCG(seed, 0x100+uint64(c)))
		s := stream{ops: make([]op, n), gaps: drawGaps(rng)}
		pushes := int32(0)
		for i := range s.ops {
			o := &s.ops[i]
			switch p := rng.IntN(100); {
			case p < 40:
				o.kind, o.a, o.n = opSet, int32(conns*z.Sample(rng)+c), int32(i+1)
			case p < 60:
				o.kind, o.a, o.n = opIncrBy, rng.Int32N(countersPer), 1+rng.Int32N(100)
			case p < 80:
				from := rng.Int32N(accounts)
				to := (from + 1 + rng.Int32N(accounts-1)) % accounts
				o.kind, o.a, o.b, o.n = opTransfer, from, to, 1+rng.Int32N(maxTransferBy)
			case p < 85:
				pushes++
				o.kind, o.a, o.n = opLPush, rng.Int32N(listsPer), pushes
			case p < 90:
				o.kind, o.a = opRPop, rng.Int32N(listsPer)
			default:
				o.kind, o.a, o.b, o.n = opZAdd, rng.Int32N(zsetsPer), rng.Int32N(zsetMembers), rng.Int32N(1_000_000)
			}
		}
		out[c] = s
	}
	return out, nil
}

// repliesPerOp is how many RESP replies one op draws.
func repliesPerOp(k opKind) int {
	if k == opTransfer {
		return 6
	}
	return 1
}

// appendOp appends o's requests for connection conn.
func (ks *keyspace) appendOp(b []byte, s *stream, conn int, o op) []byte {
	switch o.kind {
	case opGet:
		b = appendArrayHeader(b, 2)
		b = appendBulk(b, "GET")
		b = appendBulk(b, ks.keys[o.a])
	case opSet:
		b = appendArrayHeader(b, 3)
		b = appendBulk(b, "SET")
		key := ks.keys[o.a]
		b = appendBulk(b, key)
		b = append(b, "$"+strconv.Itoa(valueSize)+"\r\n"...)
		b = appendValue(b, key, o.n)
		b = append(b, '\r', '\n')
	case opMGet:
		b = appendArrayHeader(b, 1+mgetKeys)
		b = appendBulk(b, "MGET")
		for _, k := range s.mget[o.n : o.n+mgetKeys] {
			b = appendBulk(b, ks.keys[k])
		}
	case opIncr:
		b = appendArrayHeader(b, 2)
		b = appendBulk(b, "INCR")
		b = appendBulk(b, ks.counters[o.a])
	case opIncrBy:
		b = appendArrayHeader(b, 3)
		b = appendBulk(b, "INCRBY")
		b = appendBulk(b, ks.ctrs[conn][o.a])
		b = appendBulkInt(b, int64(o.n))
	case opTransfer:
		b = appendArrayHeader(b, 1)
		b = appendBulk(b, "MULTI")
		for _, leg := range [2]struct {
			acct  int32
			delta int64
		}{{o.a, -int64(o.n)}, {o.b, int64(o.n)}} {
			b = appendArrayHeader(b, 3)
			b = appendBulk(b, "INCRBY")
			b = appendBulk(b, ks.accts[leg.acct])
			b = appendBulkInt(b, leg.delta)
			b = appendArrayHeader(b, 4)
			b = appendBulk(b, "HINCRBY")
			b = appendBulk(b, "ledger")
			b = appendBulk(b, ks.fields[leg.acct])
			b = appendBulkInt(b, leg.delta)
		}
		b = appendArrayHeader(b, 1)
		b = appendBulk(b, "EXEC")
	case opLPush:
		b = appendArrayHeader(b, 3)
		b = appendBulk(b, "LPUSH")
		b = appendBulk(b, ks.lists[conn][o.a])
		b = appendBulkInt(b, int64(o.n))
	case opRPop:
		b = appendArrayHeader(b, 2)
		b = appendBulk(b, "RPOP")
		b = appendBulk(b, ks.lists[conn][o.a])
	case opZAdd:
		b = appendArrayHeader(b, 4)
		b = appendBulk(b, "ZADD")
		b = appendBulk(b, ks.zsets[conn][o.a])
		b = appendBulkInt(b, int64(o.n))
		b = appendBulk(b, ks.members[o.b])
	}
	return b
}

// userBytes is the payload an acked op asks the store to keep: keys,
// fields and values, the denominator of wal.bytes_per_user_byte.
func (ks *keyspace) userBytes(conn int, o op) int64 {
	switch o.kind {
	case opSet:
		return int64(len(ks.keys[o.a]) + valueSize)
	case opIncrBy:
		return int64(len(ks.ctrs[conn][o.a]) + 8)
	case opTransfer:
		return int64(len(ks.accts[o.a])+len(ks.accts[o.b])+2*len("ledger")+len(ks.fields[o.a])+len(ks.fields[o.b])) + 4*8
	case opLPush:
		return int64(len(ks.lists[conn][o.a]) + len(strconv.Itoa(int(o.n))))
	case opZAdd:
		return int64(len(ks.zsets[conn][o.a]) + len(ks.members[o.b]) + 8)
	}
	return 0
}

package kv

import (
	"errors"
	"fmt"
	"log"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
)

// command is one entry of the command table, the single place a
// command's name, arity and argument syntax are written. Everything
// else derives from it: the handler's dispatch, the flight-recorder
// label of each transaction, the stmkv_commands_total series and the
// INFO commandstats universe.
type command struct {
	name string
	// min and max bound the number of arguments after the name (max
	// many: no limit); with cmdPairs those past min come in pairs.
	min, max int
	flags    cmdFlags
	// parse turns the arguments into typed ones, once, before the
	// command runs or is queued; nil keeps them as strings. Its error
	// text is the reply.
	parse func(args []string) (argv, error)
	// exec runs a data command inside a transaction.
	exec execFunc
	// ctl runs a control command against the connection instead.
	ctl func(c *session, cmd *command, a argv) resp.Value

	label stm.Label // interned name, copied into each transaction
}

// execFunc runs a data command inside tx at instant now. A returned
// error aborts the transaction, and with it a whole EXEC block.
type execFunc = func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error)

type cmdFlags uint8

const (
	// cmdWrite marks a command that may write, so on a durable store it
	// can wait on the disk (a WAL group commit, or SAVE's snapshot) and
	// the replies before it are flushed first. A data command without
	// it is read-only.
	cmdWrite cmdFlags = 1 << iota
	// cmdPairs: the arguments past min come in pairs (field value,
	// score member).
	cmdPairs
	// cmdNoMulti marks a control command refused inside MULTI: EXEC
	// cannot replay it, and a stats snapshot inside a block would be a
	// lie anyway.
	cmdNoMulti
	// cmdDurable marks a control command that needs a durable store.
	cmdDurable
	// cmdUnlogged keeps a command out of the SLOWLOG: inspecting or
	// resetting the log must not repopulate it (a RESET would otherwise
	// leave one entry — the RESET).
	cmdUnlogged
)

// many is an unbounded max arity.
const many = -1

// argv is a command's arguments after its parse step: the strings as
// read (keys, values, fields, members) and the numbers decoded from
// them, so exec never parses and EXEC replays what was checked.
type argv struct {
	s      []string      // the arguments after the name
	n      [2]int64      // integers: a delta, or range start and stop
	ttl    time.Duration // SET EX/PX, EXPIRE, PEXPIRE
	opt    bool          // ZRANGE WITHSCORES
	scores []float64     // ZADD, one per score/member pair
}

// errReply is a rejection whose text is the error reply itself.
type errReply string

func (e errReply) Error() string { return string(e) }

const errSyntax = errReply("ERR syntax error")

var commands = []command{
	{name: "PING", max: 1, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		if len(a.s) == 1 {
			return resp.BulkVal(a.s[0]), nil
		}
		return resp.SimpleVal("PONG"), nil
	}},
	{name: "GET", min: 1, max: 1, exec: keyBulk((*Store).GetTx)},
	{name: "SET", min: 2, max: 4, flags: cmdWrite | cmdPairs, parse: parseSet,
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			if err := st.SetTx(tx, now, a.s[0], a.s[1], a.ttl); err != nil {
				return resp.Value{}, err
			}
			return resp.SimpleVal("OK"), nil
		}},
	{name: "DEL", min: 1, max: many, flags: cmdWrite, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		return countTrue(len(a.s), func(i int) (bool, error) { return st.DelTx(tx, now, a.s[i]) })
	}},
	{name: "INCR", min: 1, max: 1, flags: cmdWrite, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		return intReply(st.IncrTx(tx, now, a.s[0], 1))
	}},
	{name: "INCRBY", min: 2, max: 2, flags: cmdWrite, parse: parseInts(1),
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			return intReply(st.IncrTx(tx, now, a.s[0], a.n[0]))
		}},
	{name: "MGET", min: 1, max: many, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		elems := make([]resp.Value, len(a.s))
		for i, key := range a.s {
			v, ok, err := st.GetTx(tx, now, key)
			if errors.Is(err, ErrWrongType) {
				// Redis MGET reports container-typed keys as nil rather
				// than failing the whole read.
				v, ok = "", false
			} else if err != nil {
				return resp.Value{}, err
			}
			if ok {
				elems[i] = resp.BulkVal(v)
			} else {
				elems[i] = resp.NullVal()
			}
		}
		return resp.ArrayVal(elems...), nil
	}},
	{name: "MSET", min: 2, max: many, flags: cmdWrite | cmdPairs,
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			for i := 0; i+1 < len(a.s); i += 2 {
				if err := st.SetTx(tx, now, a.s[i], a.s[i+1], 0); err != nil {
					return resp.Value{}, err
				}
			}
			return resp.SimpleVal("OK"), nil
		}},
	// Non-positive TTLs delete, as in Redis.
	{name: "EXPIRE", min: 2, max: 2, flags: cmdWrite, parse: parseExpire("expire", time.Second), exec: execExpire},
	{name: "PEXPIRE", min: 2, max: 2, flags: cmdWrite, parse: parseExpire("pexpire", time.Millisecond), exec: execExpire},
	{name: "TTL", min: 1, max: 1, exec: execTTL(time.Second)},
	{name: "PTTL", min: 1, max: 1, exec: execTTL(time.Millisecond)},
	// Whole-store consistent count: every shard's every bucket joins the
	// read set (the long scan the paper's auditor scenario stresses).
	{name: "DBSIZE", exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		return intReply(st.lenTx(tx, now))
	}},
	{name: "HSET", min: 3, max: many, flags: cmdWrite | cmdPairs,
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			return countTrue(len(a.s)/2, func(i int) (bool, error) {
				return st.HSetTx(tx, now, a.s[0], a.s[1+2*i], a.s[2+2*i])
			})
		}},
	{name: "HGET", min: 2, max: 2, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		return bulkOrNull(st.HGetTx(tx, now, a.s[0], a.s[1]))
	}},
	{name: "HDEL", min: 2, max: many, flags: cmdWrite, exec: keysInt((*Store).HDelTx)},
	{name: "HGETALL", min: 1, max: 1, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		pairs, err := st.HGetAllTx(tx, now, a.s[0])
		if err != nil {
			return resp.Value{}, err
		}
		elems := make([]resp.Value, 0, 2*len(pairs))
		for _, p := range pairs {
			elems = append(elems, resp.BulkVal(p.K), resp.BulkVal(p.V))
		}
		return resp.ArrayVal(elems...), nil
	}},
	{name: "HLEN", min: 1, max: 1, exec: keyInt((*Store).HLenTx)},
	{name: "HINCRBY", min: 3, max: 3, flags: cmdWrite, parse: parseInts(2),
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			return intReply(st.HIncrTx(tx, now, a.s[0], a.s[1], a.n[0]))
		}},
	{name: "LPUSH", min: 2, max: many, flags: cmdWrite, exec: keysInt((*Store).LPushTx)},
	{name: "RPUSH", min: 2, max: many, flags: cmdWrite, exec: keysInt((*Store).RPushTx)},
	{name: "LPOP", min: 1, max: 1, flags: cmdWrite, exec: keyBulk((*Store).LPopTx)},
	{name: "RPOP", min: 1, max: 1, flags: cmdWrite, exec: keyBulk((*Store).RPopTx)},
	{name: "LLEN", min: 1, max: 1, exec: keyInt((*Store).LLenTx)},
	{name: "LRANGE", min: 3, max: 3, parse: parseRange,
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			items, err := st.LRangeTx(tx, now, a.s[0], int(a.n[0]), int(a.n[1]))
			if err != nil {
				return resp.Value{}, err
			}
			return bulkArray(items), nil
		}},
	{name: "ZADD", min: 3, max: many, flags: cmdWrite | cmdPairs, parse: parseZAdd,
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			return countTrue(len(a.scores), func(i int) (bool, error) {
				return st.ZAddTx(tx, now, a.s[0], a.s[2+2*i], a.scores[i])
			})
		}},
	{name: "ZSCORE", min: 2, max: 2, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		score, ok, err := st.ZScoreTx(tx, now, a.s[0], a.s[1])
		return bulkOrNull(formatScore(score), ok, err)
	}},
	{name: "ZREM", min: 2, max: many, flags: cmdWrite, exec: keysInt((*Store).ZRemTx)},
	{name: "ZCARD", min: 1, max: 1, exec: keyInt((*Store).ZCardTx)},
	{name: "ZRANGE", min: 3, max: 4, parse: parseZRange,
		exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
			entries, err := st.ZRangeTx(tx, now, a.s[0], int(a.n[0]), int(a.n[1]))
			if err != nil {
				return resp.Value{}, err
			}
			elems := make([]resp.Value, 0, 2*len(entries))
			for _, ze := range entries {
				elems = append(elems, resp.BulkVal(ze.Member))
				if a.opt {
					elems = append(elems, resp.BulkVal(formatScore(ze.Score)))
				}
			}
			return resp.ArrayVal(elems...), nil
		}},
	{name: "TYPE", min: 1, max: 1, exec: func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		t, ok, err := st.TypeTx(tx, now, a.s[0])
		if err != nil {
			return resp.Value{}, err
		}
		if !ok {
			return resp.SimpleVal("none"), nil
		}
		return resp.SimpleVal(t), nil
	}},
	{name: "MULTI", ctl: func(c *session, cmd *command, a argv) resp.Value {
		if c.multi {
			return resp.ErrVal("ERR MULTI calls can not be nested")
		}
		c.multi, c.queue, c.dirty = true, nil, false
		return resp.SimpleVal("OK")
	}},
	{name: "EXEC", flags: cmdWrite, ctl: func(c *session, cmd *command, a argv) resp.Value {
		switch {
		case !c.multi:
			return resp.ErrVal("ERR EXEC without MULTI")
		case c.dirty:
			c.multi, c.queue, c.dirty = false, nil, false
			return resp.ErrVal("EXECABORT Transaction discarded because of previous errors")
		}
		q := c.queue
		c.multi, c.queue = false, nil
		replies := make([]resp.Value, len(q))
		var err error
		if c.cost, err = c.srv.atomically(cmd.label, q, replies); err != nil {
			return resp.ErrVal("EXECABORT Transaction aborted: " + commandError(err).Str)
		}
		return resp.ArrayVal(replies...)
	}},
	{name: "DISCARD", ctl: func(c *session, cmd *command, a argv) resp.Value {
		if !c.multi {
			return resp.ErrVal("ERR DISCARD without MULTI")
		}
		c.multi, c.queue, c.dirty = false, nil, false
		return resp.SimpleVal("OK")
	}},
	{name: "QUIT", max: many, ctl: func(c *session, cmd *command, a argv) resp.Value {
		c.quit = true
		return resp.SimpleVal("OK")
	}},
	// Snapshots bypass the transactional path: the cut is its own
	// read-only transaction plus file choreography (see Store.Save), not
	// something EXEC could replay.
	{name: "SAVE", flags: cmdWrite | cmdNoMulti | cmdDurable, ctl: func(c *session, cmd *command, a argv) resp.Value {
		switch err := c.srv.store.Save(); {
		case errors.Is(err, wal.ErrSnapshotInProgress):
			return resp.ErrVal("ERR save already in progress")
		case err != nil:
			return resp.ErrVal("ERR save failed: " + err.Error())
		}
		return resp.SimpleVal("OK")
	}},
	{name: "BGSAVE", flags: cmdNoMulti | cmdDurable, ctl: func(c *session, cmd *command, a argv) resp.Value {
		// Fire and forget, Redis-style.
		go func() {
			if err := c.srv.store.Save(); err != nil && !errors.Is(err, wal.ErrSnapshotInProgress) {
				c.srv.NoteBgsaveFailure()
				log.Printf("kv: background save: %v", err)
			}
		}()
		return resp.SimpleVal("Background saving started")
	}},
	{name: "INFO", max: 1, flags: cmdNoMulti, ctl: func(c *session, cmd *command, a argv) resp.Value {
		return c.srv.infoReply(a.s)
	}},
	{name: "SLOWLOG", min: 1, max: many, flags: cmdNoMulti | cmdUnlogged, ctl: func(c *session, cmd *command, a argv) resp.Value {
		return ringReply(cmd.name, &c.srv.slow.ringLog, a.s)
	}},
	{name: "ABORTLOG", min: 1, max: many, flags: cmdNoMulti, ctl: func(c *session, cmd *command, a argv) resp.Value {
		return ringReply(cmd.name, &c.srv.abort.ringLog, a.s)
	}},
}

// commandIndex maps a command name to its table index, which also
// indexes the server's per-command metrics.
var commandIndex = make(map[string]int, len(commands))

func init() {
	for i := range commands {
		commands[i].label = stm.InternLabel(commands[i].name)
		commandIndex[commands[i].name] = i
	}
}

// errHangup reports that a flush failed: the peer is gone.
var errHangup = errors.New("kv: connection lost")

// session is one connection's state: the reply writer and the MULTI
// queue that control commands manage.
type session struct {
	srv   *Server
	w     *resp.Writer
	multi bool
	dirty bool // a command was rejected while queueing: EXEC aborts
	queue []queued
	quit  bool   // QUIT answered: flush and hang up
	cost  txCost // the engine cost of the EXEC block just run
}

// queued is one command waiting in a MULTI block, parsed.
type queued struct {
	cmd *command
	a   argv
}

// prepare looks name up, then checks its arguments in a fixed order —
// arity, the MULTI rule, persistence, the parse step — so a command
// gets the same error text inside a block as outside it. Any rejection
// while queueing poisons the block.
func (c *session) prepare(name string, args []string) (int, argv, error) {
	a := argv{s: args}
	var err error
	i, ok := commandIndex[name]
	if !ok {
		i, err = -1, errReply(fmt.Sprintf("ERR unknown command '%s'", name))
	} else {
		cmd := &commands[i]
		n := len(args)
		switch {
		case n < cmd.min || (cmd.max != many && n > cmd.max) || (cmd.flags&cmdPairs != 0 && (n-cmd.min)%2 != 0):
			// Control commands name themselves in lower case, data
			// commands as the client sent them upper-cased.
			shown := name
			if cmd.ctl != nil {
				shown = strings.ToLower(name)
			}
			err = errReply(fmt.Sprintf("ERR wrong number of arguments for '%s' command", shown))
		case c.multi && cmd.flags&cmdNoMulti != 0:
			err = errReply("ERR " + name + " inside MULTI is not supported")
		case cmd.flags&cmdDurable != 0 && !c.srv.store.Durable():
			err = errReply("ERR persistence is disabled (start the server with -data)")
		case cmd.parse != nil:
			a, err = cmd.parse(args)
		}
	}
	if err != nil && c.multi {
		c.dirty = true
	}
	return i, a, err
}

// run answers one prepared command: a command queued into the open
// block, a control action, or one atomic transaction.
func (c *session) run(cmd *command, a argv) (resp.Value, txCost, error) {
	if c.multi && cmd.ctl == nil {
		c.queue = append(c.queue, queued{cmd, a})
		return resp.SimpleVal("QUEUED"), txCost{}, nil
	}
	if cmd.flags&cmdWrite != 0 && c.srv.store.Durable() && c.w.Flush() != nil {
		return resp.Value{}, txCost{}, errHangup
	}
	if cmd.ctl != nil {
		c.cost = txCost{}
		return cmd.ctl(c, cmd, a), c.cost, nil
	}
	var reply [1]resp.Value
	cost, err := c.srv.atomically(cmd.label, []queued{{cmd, a}}, reply[:])
	if err != nil {
		return commandError(err), cost, nil
	}
	return reply[0], cost, nil
}

// txCost is what one transactional command cost in engine terms:
// attempts executed (1 = first try) and nanoseconds spent inside the
// contention manager. Zero for non-transactional commands. It feeds
// the SLOWLOG, which can then tell a contention victim (many attempts,
// large wait) from genuinely long work.
type txCost struct {
	attempts int64
	waitNs   int64
}

// atomically runs the commands q as one atomic transaction labelled
// lbl, storing their replies in replies. The first command error
// aborts the transaction and is returned; nothing committed.
func (srv *Server) atomically(lbl stm.Label, q []queued, replies []resp.Value) (txCost, error) {
	var cost txCost
	err := srv.store.Atomically(func(tx *stm.Tx, now int64) error {
		tx.SetLabel(lbl)
		// Retries overwrite the cost, so the committed attempt's totals
		// win (the shared record accumulates across attempts).
		defer func() { cost = txCost{attempts: tx.Aborts() + 1, waitNs: tx.WaitNs()} }()
		for i, x := range q {
			v, err := x.cmd.exec(srv.store, tx, now, x.a)
			if err != nil {
				return err
			}
			replies[i] = v
		}
		return nil
	})
	return cost, err
}

// commandError maps a rejected or failed command to its error reply.
// Only expected command-level failures reach clients; anything else
// marks an engine bug loudly.
func commandError(err error) resp.Value {
	switch {
	case errors.Is(err, ErrNotInteger):
		return resp.ErrVal("ERR value is not an integer or out of range")
	case errors.Is(err, ErrWrongType):
		return resp.ErrVal("WRONGTYPE Operation against a key holding the wrong kind of value")
	case errors.Is(err, ErrNotFloat):
		return resp.ErrVal("ERR value is not a valid float")
	case errors.Is(err, ErrOverflow):
		return resp.ErrVal("ERR increment or decrement would overflow")
	}
	if msg, ok := err.(errReply); ok {
		return resp.ErrVal(string(msg))
	}
	return resp.ErrVal("ERR internal: " + err.Error())
}

// parseInts returns the parse step of a command whose arguments at the
// given positions are integers, decoded into argv.n in order.
func parseInts(at ...int) func([]string) (argv, error) {
	return func(args []string) (argv, error) {
		a := argv{s: args}
		for k, i := range at {
			n, err := strconv.ParseInt(args[i], 10, 64)
			if err != nil {
				return a, ErrNotInteger
			}
			a.n[k] = n
		}
		return a, nil
	}
}

var parseRange = parseInts(1, 2)

func parseZRange(args []string) (argv, error) {
	if len(args) == 4 && strings.ToUpper(args[3]) != "WITHSCORES" {
		return argv{}, errSyntax
	}
	a, err := parseRange(args)
	a.opt = len(args) == 4
	return a, err
}

// parseZAdd decodes ZADD's scores: any finite or infinite float
// parses; NaN has no place in a total order.
func parseZAdd(args []string) (argv, error) {
	a := argv{s: args, scores: make([]float64, 0, len(args)/2)}
	for i := 1; i+1 < len(args); i += 2 {
		s, err := strconv.ParseFloat(args[i], 64)
		if err != nil || math.IsNaN(s) {
			return a, ErrNotFloat
		}
		a.scores = append(a.scores, s)
	}
	return a, nil
}

// parseSet decodes SET's optional EX seconds | PX milliseconds. Its
// expiry must be positive (Redis rejects EX 0 too).
func parseSet(args []string) (argv, error) {
	a := argv{s: args}
	if len(args) == 2 {
		return a, nil
	}
	unit := time.Second
	switch strings.ToUpper(args[2]) {
	case "EX":
	case "PX":
		unit = time.Millisecond
	default:
		return a, errSyntax
	}
	n, err := parseTTL("set", args[3], unit)
	if err == nil && n <= 0 {
		err = errReply("ERR invalid expire time in 'set' command")
	}
	a.ttl = n
	return a, err
}

// parseExpire returns the parse step of EXPIRE (unit seconds) or
// PEXPIRE (milliseconds), named lower-case for its error text.
func parseExpire(name string, unit time.Duration) func([]string) (argv, error) {
	return func(args []string) (argv, error) {
		ttl, err := parseTTL(name, args[1], unit)
		return argv{s: args, ttl: ttl}, err
	}
}

// parseTTL decodes an integer count of unit. A magnitude whose
// duration overflows int64 nanoseconds would silently flip sign —
// deleting a key meant to live ~300 years — so it is rejected.
func parseTTL(name, arg string, unit time.Duration) (time.Duration, error) {
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return 0, ErrNotInteger
	}
	if limit := int64(math.MaxInt64) / int64(unit); n > limit || n < -limit {
		return 0, errReply(fmt.Sprintf("ERR invalid expire time in '%s' command", name))
	}
	return time.Duration(n) * unit, nil
}

func execExpire(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
	ok, err := st.ExpireTx(tx, now, a.s[0], a.ttl)
	return intReply(boolInt(ok), err)
}

// execTTL returns TTL's (unit seconds) or PTTL's (milliseconds) exec:
// -2 for a missing key, -1 for one without expiry, else the remaining
// time rounded up.
func execTTL(unit time.Duration) execFunc {
	return func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		d, ok, err := st.TTLTx(tx, now, a.s[0])
		switch {
		case err != nil:
			return resp.Value{}, err
		case !ok:
			return resp.IntVal(-2), nil
		case d == NoTTL:
			return resp.IntVal(-1), nil
		}
		return resp.IntVal(int64((d + unit - 1) / unit)), nil
	}
}

// keyInt, keysInt and keyBulk adapt a Store method to the exec of a
// data command that passes its key (and the arguments after it)
// straight through, replying with an integer or a bulk string.
func keyInt(f func(*Store, *stm.Tx, int64, string) (int, error)) execFunc {
	return func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		return intReply(f(st, tx, now, a.s[0]))
	}
}

func keysInt(f func(*Store, *stm.Tx, int64, string, ...string) (int, error)) execFunc {
	return func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		return intReply(f(st, tx, now, a.s[0], a.s[1:]...))
	}
}

func keyBulk(f func(*Store, *stm.Tx, int64, string) (string, bool, error)) execFunc {
	return func(st *Store, tx *stm.Tx, now int64, a argv) (resp.Value, error) {
		return bulkOrNull(f(st, tx, now, a.s[0]))
	}
}

// countTrue runs op for i in [0, n) and replies with how many calls
// reported true (keys deleted, fields created, members added).
func countTrue(n int, op func(i int) (bool, error)) (resp.Value, error) {
	count := int64(0)
	for i := range n {
		ok, err := op(i)
		if err != nil {
			return resp.Value{}, err
		}
		if ok {
			count++
		}
	}
	return resp.IntVal(count), nil
}

// bulkOrNull replies with v, or null when it is absent.
func bulkOrNull(v string, ok bool, err error) (resp.Value, error) {
	switch {
	case err != nil:
		return resp.Value{}, err
	case !ok:
		return resp.NullVal(), nil
	}
	return resp.BulkVal(v), nil
}

func intReply[N int | int64](n N, err error) (resp.Value, error) {
	if err != nil {
		return resp.Value{}, err
	}
	return resp.IntVal(int64(n)), nil
}

// bulkArray replies with items as an array of bulk strings.
func bulkArray(items []string) resp.Value {
	elems := make([]resp.Value, len(items))
	for i, v := range items {
		elems[i] = resp.BulkVal(v)
	}
	return resp.ArrayVal(elems...)
}

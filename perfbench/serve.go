package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
	"crocus/internal/obs"
	"crocus/internal/serve"
	"crocus/internal/smt"
)

// The serve-mix's request kinds.
type reqKind int

const (
	kHot       reqKind = iota // a resident corpus rule: a cache read
	kCold                     // an edited rule sent inline: parse, solve, cache write
	kTail                     // an edited hard-tail rule: solved up to the budget
	kDup                      // two identical cold requests at once: they coalesce
	kMalformed                // a bad request: a 4xx is the right answer
)

var kindNames = [...]string{"hot", "cold", "tail", "dup", "malformed"}

// blockLen is the length of the mix's fixed request pattern. Per block:
// 187 hot, 4 cold, 1 duplicate pair, 1 hard-tail and 6 malformed
// requests. The shares are an assumption, not a measurement: the
// repository holds no record of the traffic crocus-serve sees (ROADMAP
// names the kinds of a daemon latency profile, not their shares). They
// model an editor or CI client of a warm daemon, which mostly rechecks
// rules that have not changed (hot), now and then sends a rule just
// edited (cold, about one request in fifty, so the open loop keeps the
// daemon well below saturation), rarely a hard-tail rule or the same
// edit twice at once (one each per block: enough for every tail rule
// and duplicate target to appear once per round), and some requests the
// daemon must refuse (malformed, enough for each of the five bad bodies
// to appear every round). The kinds sit at fixed positions, so the seed
// never moves where the cold solves fall; it only picks rules, orders
// and names.
//
// The closed loop, which measures capacity, sends the pattern as it is.
// The open loop, which measures latency, sends malformed requests in
// place of the hard-tail request and the duplicate pair. Both stall
// clients: with at most nproc clients, a tail solve stalls every client
// exactly when its units occupy every pool worker, which depends on
// work-stealing timing (in five seeded runs with tails the p99 ranged
// 21-200 ms), and a duplicate pair holds both clients at once (with
// pairs, the p99's spread over ten seeded runs was 27-41 %).
const blockLen = 200

func kindAt(i int, closed bool) reqKind {
	switch j := i % blockLen; {
	case j == 120 && closed:
		return kTail
	case j == 120:
		return kMalformed
	case j%50 == 30:
		return kCold
	case (j == 95 || j == 96) && closed:
		return kDup
	case j == 95 || j == 96:
		return kMalformed
	case j%33 == 13:
		return kMalformed
	default:
		return kHot
	}
}

// tailRules are five of the aarch64 hard-tail rules; five, so that one
// mix round holds each exactly once.
var tailRules = []string{"urem_fits32", "sdiv_fits32", "urem_64", "srem_64", "rotl_64"}

// mixRound is five blocks. A round holds every cold target four times,
// every tail rule and duplicate target once, and its 935 hot requests
// spread over the hot pool as evenly as they divide (every rule eight
// times, the first ones in corpus order nine), so it has the same
// composition whatever the seed. Both loops send whole rounds.
const mixRound = 5 * blockLen

// coldTarget is a rule a cold, duplicate or tail request sends inline:
// the program's files, and the expected-table program key.
type coldTarget struct {
	prog  string
	files []string
	rule  string
}

// coldTargets are five aarch64 ALU rules of like cost, fixed so every
// seed solves the same set; they must keep their verdicts.
var coldTargets = []coldTarget{
	{"aarch64", []string{"aarch64.isle"}, "iadd_base"},
	{"aarch64", []string{"aarch64.isle"}, "isub_base"},
	{"aarch64", []string{"aarch64.isle"}, "band_base"},
	{"aarch64", []string{"aarch64.isle"}, "bor_base"},
	{"aarch64", []string{"aarch64.isle"}, "bxor_base"},
}

// dupTargets are what the duplicate pairs send: an x64 rule, which must
// keep its verdict, and four of the paper's bug reproductions, which
// must fail with a counterexample that replays.
var dupTargets = []coldTarget{
	{"x64", []string{"x64.isle"}, "x64_isub_base"},
	{"bug:cls_bug", []string{"bugs/cls_bug.isle"}, "cls8_buggy"},
	{"bug:cls_bug", []string{"bugs/cls_bug.isle"}, "cls16_buggy"},
	{"bug:amode_cve", []string{"x64.isle", "bugs/amode_cve.isle"}, "amode_add_uext_shift_cve"},
	{"bug:midend_bug", []string{"midend.isle", "bugs/midend_bug.isle"}, "bor_band_not_buggy"},
}

// malformedBodies are bad requests with the status each must get.
var malformedBodies = []struct {
	body   string
	status int
}{
	{`{"corpus":"aarch64"}`, http.StatusBadRequest},
	{`{"corpus":"aarch64","rule":"no_such_rule"}`, http.StatusNotFound},
	{`{"corpus":"riscv","rule":"iadd_base"}`, http.StatusBadRequest},
	{`{"corpus":"aarch64","rule":"iadd_base"`, http.StatusBadRequest},
	{`{"corpus":"aarch64","rule":"iadd_base","bogus":1}`, http.StatusBadRequest},
}

// request is one scheduled request and, once sent, its outcome.
type request struct {
	kind   reqKind
	body   []byte
	prog   string // expected-table program key
	rule   string
	files  []serve.SourceFile // inline program, for counterexample replay
	status int                // expected HTTP status
	tgt    coldTarget         // inline request: the rule sent
	old    string             // inline request: the variable renamed
	second bool               // the second request of a duplicate pair

	due     time.Duration // open loop: send time from the phase start
	late    time.Duration // how late it was sent
	latency time.Duration // completion minus due time (open loop) or send time
	got     int
	resp    []byte
	err     error
}

// mixGen generates requests from the seed.
type mixGen struct {
	rng *rand.Rand
	tag string
	n   int
	// hot is the corpus rules less the hard-tail ones. A cache read is
	// not equally cheap for all: the daemon prepares a rule to
	// fingerprint it, and the 22 icmp rules' flag and condition-code
	// encodings make that about twice a typical read (open-loop p50 3.5
	// against 1.9 ms), so they sit in the tail the p95 measures.
	hot     []coldTarget
	texts   map[string]string
	vars    map[string][]string // "prog/rule" -> LHS variables
	cold    []int               // seeded cycle over coldTargets
	dup     []int               // seeded cycle over dupTargets
	tail    []int               // seeded cycle over tailRules
	hotNext []int               // the current round's hot picks, in seeded order
}

func newMixGen(seed int64, progs map[string]*isle.Program, texts map[string]string) (*mixGen, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &mixGen{rng: rng, tag: fmt.Sprintf("sm%x", rng.Uint32()), texts: texts, vars: map[string][]string{}}
	for _, c := range sweepCorpora {
		for _, r := range progs[c].Rules {
			g.vars[c+"/"+r.Name] = lhsVars(r)
			if !isHardTail[r.Name] {
				g.hot = append(g.hot, coldTarget{prog: c, rule: r.Name})
			}
		}
	}
	for _, t := range append(append([]coldTarget{}, coldTargets...), dupTargets...) {
		if len(g.vars[t.prog+"/"+t.rule]) == 0 {
			p, ok := progs[t.prog]
			if !ok {
				return nil, fmt.Errorf("no program %s", t.prog)
			}
			for _, r := range p.Rules {
				if r.Name == t.rule {
					g.vars[t.prog+"/"+t.rule] = lhsVars(r)
				}
			}
		}
		if len(g.vars[t.prog+"/"+t.rule]) == 0 {
			return nil, fmt.Errorf("cold target %s/%s has no variables", t.prog, t.rule)
		}
	}
	for _, r := range tailRules {
		if len(g.vars["aarch64/"+r]) == 0 {
			return nil, fmt.Errorf("tail rule %s not in aarch64", r)
		}
	}
	return g, nil
}

// next draws index from a seeded cycle over n items: each item once per
// pass, in a fresh seeded order.
func (g *mixGen) next(cycle *[]int, n int) int {
	if len(*cycle) == 0 {
		*cycle = g.rng.Perm(n)
	}
	i := (*cycle)[0]
	*cycle = (*cycle)[1:]
	return i
}

const reqOpts = `"custom_vc":true,"propagation_budget":400000,"timeout_ms":120000`

// inline builds an inline-source request for rule, with one of its
// variables renamed to a name unique to this request.
func (g *mixGen) inline(kind reqKind, t coldTarget) (request, error) {
	vs := g.vars[t.prog+"/"+t.rule]
	return g.render(kind, t, vs[g.rng.Intn(len(vs))])
}

// render builds an inline-source request for rule with variable old
// renamed to a fresh name.
func (g *mixGen) render(kind reqKind, t coldTarget, old string) (request, error) {
	g.n++
	files := []serve.SourceFile{{Name: "prelude.isle", Src: g.texts["prelude.isle"]}}
	for _, f := range t.files {
		files = append(files, serve.SourceFile{Name: f, Src: g.texts[f]})
	}
	// The rule lives in the last file: the corpus, or the bug file.
	last := &files[len(files)-1]
	src, err := renameVar(last.Src, t.rule, old, fmt.Sprintf("%s_%d", g.tag, g.n))
	if err != nil {
		return request{}, err
	}
	last.Src = src
	body, err := json.Marshal(struct {
		Files []serve.SourceFile `json:"files"`
		Rule  string             `json:"rule"`
	}{files, t.rule})
	if err != nil {
		return request{}, err
	}
	body = append(body[:len(body)-1], ","+reqOpts+"}"...)
	return request{kind: kind, body: body, prog: t.prog, rule: t.rule, files: files, status: http.StatusOK, tgt: t, old: old}, nil
}

// replay returns reqs to be sent again: the same requests on the same
// schedule, each inline one with a fresh name so that it misses the
// cache again (a duplicate pair shares its new name).
func (g *mixGen) replay(reqs []*request) ([]*request, error) {
	out := make([]*request, len(reqs))
	for i, r := range reqs {
		c := &request{kind: r.kind, body: r.body, prog: r.prog, rule: r.rule, files: r.files,
			status: r.status, tgt: r.tgt, old: r.old, second: r.second, due: r.due}
		switch {
		case r.second:
			c.body, c.files = out[i-1].body, out[i-1].files
		case r.files != nil:
			n, err := g.render(r.kind, r.tgt, r.old)
			if err != nil {
				return nil, err
			}
			c.body, c.files = n.body, n.files
		}
		out[i] = c
	}
	return out, nil
}

// hotPick returns the next hot rule. Each round's hot picks are the pool
// repeated to fill the round's hot slots, in a fresh seeded order.
func (g *mixGen) hotPick() coldTarget {
	if len(g.hotNext) == 0 {
		n := 0
		for i := 0; i < mixRound; i++ {
			if kindAt(i, true) == kHot {
				n++
			}
		}
		g.hotNext = g.rng.Perm(n)
	}
	i := g.hotNext[0]
	g.hotNext = g.hotNext[1:]
	return g.hot[i%len(g.hot)]
}

// requests generates the first n requests of the mix pattern, each due
// at its position over rate, in the closed loop's form or the open
// loop's (see blockLen).
func (g *mixGen) requests(n int, rate float64, closed bool) ([]*request, error) {
	out := make([]*request, 0, n)
	var dup *request
	for i := 0; i < n; i++ {
		var r request
		var err error
		switch kindAt(i, closed) {
		case kHot:
			t := g.hotPick()
			r = request{kind: kHot, prog: t.prog, rule: t.rule, status: http.StatusOK,
				body: []byte(fmt.Sprintf(`{"corpus":%q,"rule":%q,%s}`, t.prog, t.rule, reqOpts))}
		case kCold:
			r, err = g.inline(kCold, coldTargets[g.next(&g.cold, len(coldTargets))])
		case kTail:
			r, err = g.inline(kTail, coldTarget{prog: "aarch64", files: []string{"aarch64.isle"}, rule: tailRules[g.next(&g.tail, len(tailRules))]})
		case kDup:
			if dup != nil {
				r = *dup
				r.second = true
				dup = nil
			} else {
				r, err = g.inline(kDup, dupTargets[g.next(&g.dup, len(dupTargets))])
				dup = &r
			}
		case kMalformed:
			mb := malformedBodies[g.rng.Intn(len(malformedBodies))]
			r = request{kind: kMalformed, body: []byte(mb.body), status: mb.status}
		}
		if err != nil {
			return nil, err
		}
		due := i
		if kindAt(i, closed) == kDup && dup == nil {
			due-- // the pair's second request is due with the first
		}
		r.due = time.Duration(float64(due) / rate * float64(time.Second))
		out = append(out, &r)
	}
	return out, nil
}

// daemon is an in-process crocus-serve instance on a loopback port.
type daemon struct {
	srv  *serve.Server
	url  string
	done chan error
}

func startDaemon(warm string, tr *obs.Tracer) (*daemon, error) {
	srv, err := serve.New(serve.Config{
		CacheDir:      warm,
		MaxInflight:   runtime.NumCPU(),
		QueueTimeout:  time.Minute,
		Timeout:       backstop,
		MaxTimeout:    backstop,
		Tracer:        tr,
		FlightLatency: -1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	resp, err := http.Get(d.url + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon and waits for its serve loop to return.
func (d *daemon) stop() error {
	err := d.srv.Drain()
	if serr := <-d.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// counters scrapes the counters on /metricsz into a map keyed by their
// exposed names less the "crocus_" prefix and "_total" suffix (see
// metricsKey).
func (d *daemon) counters(client *http.Client) (map[string]int64, error) {
	resp, err := client.Get(d.url + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], "crocus_") || !strings.HasSuffix(f[0], "_total") {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(strings.TrimPrefix(f[0], "crocus_"), "_total")] = v
	}
	return out, sc.Err()
}

// metricsKey maps a registry counter name to its /metricsz form.
func metricsKey(name string) string { return strings.NewReplacer(".", "_", "-", "_").Replace(name) }

// send posts one request and records its outcome.
func send(ctx context.Context, client *http.Client, url string, r *request) {
	sp := obs.Start(ctx, spanRequest)
	defer sp.End()
	resp, err := client.Post(url+"/v1/verify", "application/json", bytes.NewReader(r.body))
	if err != nil {
		r.err = err
		return
	}
	r.resp, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.got = resp.StatusCode
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// openLoop sends reqs on their schedule from clients goroutines; a
// request is timed from its due time, so a stalled client delays the
// requests behind it.
func openLoop(client *http.Client, url string, reqs []*request, clients int) {
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				r.late = time.Since(start) - r.due
				send(context.Background(), client, url, r)
				r.latency = time.Since(start) - r.due
			}
		}()
	}
	wg.Wait()
}

// closedLoop sends reqs back to back from clients goroutines and
// returns the elapsed time.
func closedLoop(ctx context.Context, client *http.Client, url string, reqs []*request, clients int) time.Duration {
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t := time.Now()
				send(ctx, client, url, reqs[i])
				reqs[i].latency = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// verdictResp is the part of a /v1/verify response the checks read.
type verdictResp struct {
	Verdict struct {
		Coalesced bool `json:"coalesced"`
		Insts     []struct {
			Sig            string `json:"sig"`
			Outcome        string `json:"outcome"`
			Cached         bool   `json:"cached"`
			Escalations    int    `json:"escalations"`
			Error          string `json:"error"`
			Stats          struct{ Propagations, Queries int64 }
			Counterexample *struct {
				Inputs map[string]string `json:"inputs"`
			} `json:"counterexample"`
		} `json:"insts"`
	} `json:"verdict"`
	Stats serve.RequestStats `json:"stats"`
}

var outcomeFromWire = map[string]core.Outcome{
	"success": core.OutcomeSuccess, "inapplicable": core.OutcomeInapplicable,
	"failure": core.OutcomeFailure, "timeout": core.OutcomeTimeout, "error": core.OutcomeError,
}

// parseValue reads a counterexample value in smt.Value's printed form.
func parseValue(s string) (smt.Value, error) {
	switch {
	case s == "true" || s == "false":
		return smt.BoolValue(s == "true"), nil
	case strings.HasPrefix(s, "#b"):
		v, err := strconv.ParseUint(s[2:], 2, 64)
		return smt.BVValue(v, len(s)-2), err
	case strings.HasPrefix(s, "#x"):
		v, err := strconv.ParseUint(s[2:], 16, 64)
		return smt.BVValue(v, 4*(len(s)-2)), err
	default:
		v, err := strconv.ParseInt(s, 10, 64)
		return smt.IntValue(v), err
	}
}

// serveStats are the per-request serving figures of a phase.
type serveStats struct {
	queueWaitMS, serverMS, overheadMS []float64
	insts, cached, coalesced, okReqs  int
	rejected                          int
}

func (s *serveStats) add(o serveStats) {
	s.queueWaitMS = append(s.queueWaitMS, o.queueWaitMS...)
	s.serverMS = append(s.serverMS, o.serverMS...)
	s.overheadMS = append(s.overheadMS, o.overheadMS...)
	s.insts += o.insts
	s.cached += o.cached
	s.coalesced += o.coalesced
	s.okReqs += o.okReqs
	s.rejected += o.rejected
}

// checkResponses checks every response of a phase against the known
// answers (replaying counterexamples through the concrete interpreter
// on a locally parsed copy of the request's program) and gathers the
// serving figures.
func checkResponses(reqs []*request, chk *checker, resident map[string]*isle.Program) (serveStats, error) {
	var st serveStats
	parsed := map[string]*isle.Program{}
	for _, r := range reqs {
		if r.err != nil {
			chk.request(false, chk.exp.unitsOf(r.prog, r.rule), fmt.Sprintf("%s request %s: %v", kindNames[r.kind], r.rule, r.err))
			continue
		}
		if r.got == http.StatusTooManyRequests || r.got == http.StatusServiceUnavailable {
			st.rejected++
		}
		if r.got != r.status {
			chk.request(false, chk.exp.unitsOf(r.prog, r.rule), fmt.Sprintf("%s request %s: status %d, want %d", kindNames[r.kind], r.rule, r.got, r.status))
			continue
		}
		if r.kind == kMalformed {
			chk.request(true, 0, "")
			continue
		}
		var vr verdictResp
		if err := json.Unmarshal(r.resp, &vr); err != nil {
			return st, fmt.Errorf("decoding response: %w", err)
		}
		st.okReqs++
		st.queueWaitMS = append(st.queueWaitMS, float64(vr.Stats.QueueWaitNS)/1e6)
		st.serverMS = append(st.serverMS, float64(vr.Stats.TotalNS)/1e6)
		st.overheadMS = append(st.overheadMS, ms(r.latency-r.late)-float64(vr.Stats.TotalNS)/1e6)
		if vr.Verdict.Coalesced {
			st.coalesced++
		}
		units := make([]unitVerdict, 0, len(vr.Verdict.Insts))
		for _, in := range vr.Verdict.Insts {
			o, ok := outcomeFromWire[in.Outcome]
			if !ok {
				return st, fmt.Errorf("unknown outcome %q", in.Outcome)
			}
			sig := in.Sig
			if sig == "" {
				sig = "-"
			}
			u := unitVerdict{
				sig: sig, outcome: o, cached: in.Cached, errText: in.Error,
				props: in.Stats.Propagations, queries: in.Stats.Queries, escalations: int64(in.Escalations),
			}
			if in.Counterexample != nil {
				u.hasCex = true
				u.cex = map[string]smt.Value{}
				for k, s := range in.Counterexample.Inputs {
					v, err := parseValue(s)
					if err != nil {
						return st, fmt.Errorf("counterexample value %q: %w", s, err)
					}
					u.cex[k] = v
				}
			}
			st.insts++
			if in.Cached {
				st.cached++
			}
			units = append(units, u)
		}
		replay := func(sig string, in map[string]smt.Value) error {
			p, err := requestProgram(r, resident, parsed)
			if err != nil {
				return err
			}
			for _, rule := range p.Rules {
				if rule.Name == r.rule {
					return replayer(p, rule)(sig, in)
				}
			}
			return fmt.Errorf("rule %s not in the request's program", r.rule)
		}
		chk.rule(r.prog, r.rule, units, false, replay)
	}
	return st, nil
}

// requestProgram returns the program a request verified: a resident
// corpus, or its inline files parsed here (memoized by request body).
func requestProgram(r *request, resident map[string]*isle.Program, parsed map[string]*isle.Program) (*isle.Program, error) {
	if r.files == nil {
		return resident[r.prog], nil
	}
	if p, ok := parsed[string(r.body)]; ok {
		return p, nil
	}
	files := make([]srcFile, len(r.files))
	for i, f := range r.files {
		files[i] = srcFile{f.Name, f.Src}
	}
	p, err := parseFiles(context.Background(), files...)
	if err != nil {
		return nil, err
	}
	parsed[string(r.body)] = p
	return p, nil
}

// The open loop sends one round at openRate, openPasses times over: the
// same requests on the same schedule, inline ones under fresh names so
// they miss the cache each time. A position's latency is its fastest
// pass, so a burst of load from outside the run that slows one pass does
// not reach the percentiles. Three passes rather than two: in three runs
// when the host took 11-14 % of the CPU (steal), the p95 of the faster
// of two passes rose by half, so the p95's ten-run spread reached 37 %.
// The round's 1000 positions leave fifty beyond the 95th percentile and
// ten beyond the 99th. The gated tail (op_tail_ms) is the p95: the p99
// is set by a few cold requests that land in the daemon's garbage
// collections by chance (its spread over ten seeded runs of distinct
// requests was 35 %), and it is reported beside it as a per-layer
// metric.
const (
	openRate   = 100.0
	openPasses = 3
)

// The closed loop sends closedRounds rounds block by block, each block
// closedReps times (inline requests under fresh names), and takes each
// block's fastest time, for the reason the open loop takes each
// position's (with distinct blocks timed once, the mean block time's
// spread over ten seeded runs reached 28 %).
const closedReps = 3

// closedRounds is how many closed-loop rounds a run of the given length
// sends: one per ten seconds, at least two (three at 30 s; block times
// moved by up to half between sends, and with two rounds work_s's
// ten-seed spread reached 35 %). It is a fixed count, not as many as
// fit: every inline request leaves a parsed program in the daemon, so a
// count that followed the machine's speed would move the heap too.
func closedRounds(seconds float64) int {
	return max(2, int(seconds/10))
}

// latencyLimitMS is the fixed latency limit on the open-loop p99; the
// run reports whether it was met.
const latencyLimitMS = 50.0

// mixInputs parses the resident corpora and loads what inline requests
// send: the source texts by file name, and every program a request may
// name (the corpora and the bug reproductions) by expected-table key.
func mixInputs(ctx context.Context) ([]program, map[string]string, map[string]*isle.Program, error) {
	prelude, texts, err := loadTexts(sweepCorpora...)
	if err != nil {
		return nil, nil, nil, err
	}
	progs, err := parseCorpora(ctx, prelude, texts, sweepCorpora...)
	if err != nil {
		return nil, nil, nil, err
	}
	srcs := map[string]string{"prelude.isle": prelude.src}
	for _, path := range []string{"aarch64.isle", "x64.isle", "midend.isle", "bugs/cls_bug.isle", "bugs/amode_cve.isle", "bugs/midend_bug.isle"} {
		f, err := readSource(path)
		if err != nil {
			return nil, nil, nil, err
		}
		srcs[path] = f.src
	}
	all := map[string]*isle.Program{}
	for _, p := range progs {
		all[p.key] = p.prog
	}
	for _, b := range corpus.Bugs() {
		p, err := corpus.LoadBug(b)
		if err != nil {
			return nil, nil, nil, err
		}
		all["bug:"+b.ID] = p
	}
	return progs, srcs, all, nil
}

// runServeMix drives an in-process daemon over loopback HTTP with the
// seeded five-kind mix: an open-loop phase at openRate measures latency
// (op_p50_ms, and op_tail_ms = p95, each timed from its due time; the
// p99 is the per-layer serve.req_p99_ms, see openPasses), then a closed
// loop with nproc clients measures capacity (work_s = mean time to serve
// one 200-request block of the mix; capacity_rps = 200 / work_s).
//
// Set-up (setup_s): start the daemon — parse the three resident
// corpora, load the warm vcache, listen, answer healthz.
func runServeMix(cfg *config, chk *checker) (metrics, error) {
	bg := context.Background()
	progs, srcs, allProgs, err := mixInputs(bg)
	if err != nil {
		return nil, err
	}
	warm := filepath.Join(cfg.workDir, "warm")
	if err := warmStore(bg, warm, progs, chk); err != nil {
		return nil, err
	}
	resident := map[string]*isle.Program{}
	for _, p := range progs {
		resident[p.key] = p.prog
	}
	gen, err := newMixGen(cfg.seed, allProgs, srcs)
	if err != nil {
		return nil, err
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		d, err := startDaemon(warm, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if err := d.stop(); err != nil {
			return nil, err
		}
	}

	clients := runtime.NumCPU()
	client := newClient(clients)
	defer client.CloseIdleConnections()
	m := metrics{}

	round, err := gen.requests(mixRound, openRate, false)
	if err != nil {
		return nil, err
	}
	openPass := [][]*request{round}
	for len(openPass) < openPasses {
		again, err := gen.replay(round)
		if err != nil {
			return nil, err
		}
		openPass = append(openPass, again)
	}

	d, err := startDaemon(warm, nil)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	mem := startMem()
	for _, reqs := range openPass {
		openLoop(client, d.url, reqs, clients)
	}
	// Closed-loop responses are checked block by block, between the
	// timed sends, so the run does not hold them all.
	var closedSt serveStats
	var blocks []float64
	for len(blocks) < closedRounds(cfg.seconds)*mixRound/blockLen {
		reqs, err := gen.requests(blockLen, openRate, true)
		best := time.Duration(math.MaxInt64)
		for r := 0; r < closedReps && err == nil; r++ {
			if r > 0 {
				if reqs, err = gen.replay(reqs); err != nil {
					break
				}
			}
			best = min(best, closedLoop(bg, client, d.url, reqs, clients))
			var bs serveStats
			bs, err = checkResponses(reqs, chk, resident)
			closedSt.add(bs)
		}
		if err != nil {
			d.stop()
			heap.peakMB()
			return nil, err
		}
		blocks = append(blocks, best.Seconds())
	}
	_, cycles, pause := mem.end()
	peak := heap.peakMB()
	daemonCounters, err := d.counters(client)
	if err != nil {
		d.stop()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	var st serveStats
	for _, reqs := range openPass {
		s, err := checkResponses(reqs, chk, resident)
		if err != nil {
			return nil, err
		}
		st.add(s)
	}
	var lat, late []float64
	for i := range round {
		best := openPass[0][i].latency
		for _, reqs := range openPass[1:] {
			best = min(best, reqs[i].latency)
		}
		lat = append(lat, ms(best))
		for _, reqs := range openPass {
			late = append(late, ms(reqs[i].late))
		}
	}
	p50, _ := quantile(lat, 0.5)
	p95, beyond95 := quantile(lat, 0.95)
	p99, beyond := quantile(lat, 0.99)
	var total float64
	for _, b := range blocks {
		total += b
	}
	perBlock := total / float64(len(blocks))
	capacity := float64(blockLen) / perBlock
	fmt.Fprintf(cfg.log, "serve-mix: open loop %d requests at %.0f/s, sent %d times, fastest per request: req_p50_ms %.3f, req_p95_ms %.3f (%d beyond), req_p99_ms %.3f (%d beyond; limit %.0f ms, met: %v); closed loop %d blocks of %d, each sent %d times, fastest %.3fs per block on average: capacity_rps %.1f\n",
		len(round), openRate, openPasses, p50, p95, beyond95, p99, beyond, latencyLimitMS, p99 <= latencyLimitMS, len(blocks), blockLen, closedReps, perBlock, capacity)

	if !cfg.trace {
		m.set("setup_s", "s", median(setups))
		m.set("work_s", "s", perBlock)
		m.set("op_p50_ms", "ms", p50)
		m.set("op_tail_ms", "ms", p95)
		m.set("peak_heap_mb", "MB", peak)
		return m, nil
	}

	// Per-layer figures: latency parts from the open loop, shares and
	// refusals from both loops (only the closed loop sends duplicate
	// pairs).
	qw, _ := quantile(st.queueWaitMS, 0.99)
	lateP99, _ := quantile(late, 0.99)
	m.set("serve.req_p99_ms", "ms", p99)
	m.set("serve.queue_wait_p99_ms", "ms", qw)
	m.set("serve.server_p50_ms", "ms", median(st.serverMS))
	m.set("serve.http_overhead_p50_ms", "ms", median(st.overheadMS))
	st.add(closedSt)
	m.set("serve.coalesced_share", "ratio", safeDiv(float64(st.coalesced), float64(st.okReqs)))
	m.set("serve.cached_share", "ratio", safeDiv(float64(st.cached), float64(st.insts)))
	m.set("serve.rejected", "count", float64(st.rejected))
	m.set("gen.late_p99_ms", "ms", lateP99)
	m.set("sched.steals", "count", float64(daemonCounters[metricsKey("sched.steals")]))
	m.set("sched.stolen_units", "count", float64(daemonCounters[metricsKey("sched.stolen_units")]))
	m.set("gc.cycles", "count", cycles)
	m.set("gc.pause_ms", "ms", pause)

	// One block sent by a single client, untraced, traced and untraced
	// again (the faster untraced pass is the overhead's baseline), each on
	// a fresh daemon and with fresh names, so all three do the same work:
	// requests run one at a time, so the daemon's request spans (which
	// all share lane 0) nest and the ledger can attribute them.
	block, err := gen.requests(blockLen, openRate, true)
	if err != nil {
		return nil, err
	}
	seqPass := func(tr *obs.Tracer, chk *checker) (time.Duration, map[string]int64, error) {
		reqs, err := gen.replay(block)
		if err != nil {
			return 0, nil, err
		}
		d, err := startDaemon(warm, tr)
		if err != nil {
			return 0, nil, err
		}
		ctx := obs.WithTracer(bg, tr)
		root := obs.Start(ctx, spanRun)
		wall := closedLoop(ctx, client, d.url, reqs, 1)
		root.End()
		c, err := d.counters(client)
		if err != nil {
			d.stop()
			return 0, nil, err
		}
		if err := d.stop(); err != nil {
			return 0, nil, err
		}
		_, err = checkResponses(reqs, chk, resident)
		return wall, c, err
	}
	base, _, err := seqPass(nil, chk)
	if err != nil {
		return nil, err
	}
	tr := obs.New()
	tchk := newChecker(chk.exp)
	traced, c, err := seqPass(tr, tchk)
	chk.merge(tchk)
	if err != nil {
		return nil, err
	}
	if err := finishTrace(cfg, tr, m); err != nil {
		return nil, err
	}
	after, _, err := seqPass(nil, chk)
	if err != nil {
		return nil, err
	}
	m.set("obs.trace_overhead", "ratio", traced.Seconds()/min(base, after).Seconds())
	solverCounters(m, func(name string) float64 { return float64(c[metricsKey(name)]) })
	tchk.workCounts(m)
	return m, nil
}

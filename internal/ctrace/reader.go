package ctrace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
	"unsafe"

	"nestless/internal/trace"
)

// Options configures a Reader.
type Options struct {
	// Lenient downgrades validation errors (malformed rows, bad
	// requests, out-of-order timestamps, duplicate submits, ends for
	// unknown jobs) to counted skips. The default is strict: the first
	// bad row is an error naming the line.
	Lenient bool
}

// header is the canonical CSV header line, skipped when present.
const header = "time_us,event,job,task,user,cpu,mem"

// maxLine bounds one physical line (a JSONL pod with very many
// containers); beyond it the file is malformed.
const maxLine = 4 << 20

// Input mode, sniffed from content. A '{' first byte means JSON lines;
// whether those are the native pod-level rows or a 2019 v3
// instance_events export is decided from the first data line (see
// instance_events.go).
const (
	modeCSV = iota
	modeJSONSniff
	modeJSONL
	modeInstance
)

// jobState is one open-pod table entry: a job accumulating SUBMIT rows
// at the current instant (building) or live awaiting its end (open task
// count). Entries are pooled across jobs — ending a job recycles its
// state, but never its containers slice, which escapes into the Submit
// event the consumer keeps.
type jobState struct {
	id       string
	user     string
	ctrs     []trace.Container
	open     int
	building bool
}

// Reader streams normalized events out of a trace file. Memory is
// bounded by the number of concurrently live pods (the open-pod table
// and the current-timestamp submit groups) plus a fixed number of
// parse-ahead batches, never by file size.
//
// Decoding runs in two stages (see parse.go). The first Next starts a
// producer goroutine that owns the scanner from then on and parses rows
// into pooled batches; Next applies those rows in file order. The apply
// loop is allocation-free outside the data that escapes into events:
// job states are pooled, user names are interned once per tenant, and
// the emission queue's backing array is reused across flushes.
type Reader struct {
	opts    Options
	p       *parser
	running bool   // the producer has been started
	cur     *batch // batch being applied; nil before the first Next
	pos     int    // next row of cur
	lastUS  int64  // last accepted row timestamp (order validation)
	started bool

	// CSV submit coalescing: jobs whose SUBMIT rows are accumulating at
	// curUS, flushed in first-seen order when time advances. jobs holds
	// every building or live job; free recycles ended entries.
	curUS int64
	order []*jobState
	jobs  map[string]*jobState
	free  []*jobState
	last  *jobState         // the entry the previous task row found (see lookup)
	users map[string]string // interned tenant names

	// ready is the emission queue (flushes can release several events at
	// once), drained head-first and reset in place when it empties.
	ready     []Event
	readyHead int

	stats   Stats
	err     error // sticky terminal error
	closers []io.Closer
}

// errClosed is what Next returns after Close ended the stream early.
var errClosed = errors.New("ctrace: reader closed")

// Open opens a trace file for streaming. Gzip compression and the
// CSV/JSONL format are sniffed from the content, not the name.
func Open(path string, opts Options) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closers = append(r.closers, f)
	return r, nil
}

// NewReader wraps an arbitrary stream. See Open for file paths. It
// starts no goroutine: the parse-ahead stage starts on the first Next.
func NewReader(src io.Reader, opts Options) (*Reader, error) {
	br := bufio.NewReader(src)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("ctrace: gzip: %w", err)
		}
		br = bufio.NewReader(gz)
	}
	p := &parser{sc: bufio.NewScanner(br), mode: modeCSV, lenient: opts.Lenient}
	// Format sniff: the first non-space byte of a JSONL trace is '{'.
	if first, err := br.Peek(1); err == nil && (first[0] == '{' || first[0] == '[') {
		p.mode = modeJSONSniff
	}
	return &Reader{
		opts:  opts,
		p:     p,
		jobs:  map[string]*jobState{},
		users: map[string]string{},
	}, nil
}

// Close stops the parse-ahead stage, waits for it to exit and releases
// the underlying file (if Open was used). A Reader abandoned before
// io.EOF or its first error must be closed to release that goroutine.
// Next returns an error after Close unless the stream had already
// ended.
func (r *Reader) Close() error {
	r.stop()
	if r.err == nil {
		r.err = errClosed
	}
	r.ready, r.readyHead, r.cur = r.ready[:0], 0, nil
	var err error
	for i := len(r.closers) - 1; i >= 0; i-- {
		if cerr := r.closers[i].Close(); err == nil {
			err = cerr
		}
	}
	r.closers = nil
	if r.running {
		<-r.p.exited
	}
	return err
}

// stop tells the producer to exit at its next hand-off. Idempotent.
func (r *Reader) stop() {
	if r.running {
		r.p.stopOnce.Do(func() { close(r.p.done) })
	}
}

// Stats reports consumption counters (complete once Next returned
// io.EOF).
func (r *Reader) Stats() Stats { return r.stats }

// Next yields the next normalized event in time order, io.EOF at the
// end, or the first validation error in strict mode.
func (r *Reader) Next() (Event, error) {
	for {
		if r.readyHead < len(r.ready) {
			ev := r.ready[r.readyHead]
			r.ready[r.readyHead] = Event{} // release escaped references
			r.readyHead++
			if r.readyHead == len(r.ready) {
				r.ready = r.ready[:0]
				r.readyHead = 0
			}
			return ev, nil
		}
		if r.err != nil {
			return Event{}, r.err
		}
		if r.cur == nil || r.pos == len(r.cur.rows) {
			r.refill()
			continue
		}
		rw := &r.cur.rows[r.pos]
		r.pos++
		r.stats.Rows++
		err := rw.err
		if err == nil {
			err = r.applyRow(r.cur.mode, rw)
		}
		if err != nil {
			if r.opts.Lenient {
				r.stats.Skipped++
				continue
			}
			r.err = fmt.Errorf("ctrace: line %d: %w", rw.line, err)
			r.stop()
		}
	}
}

// refill recycles the drained batch and takes the next one from the
// producer, starting it on first use. The last batch of a stream ends
// it: at io.EOF the final submit groups flush.
func (r *Reader) refill() {
	if b := r.cur; b != nil {
		r.cur = nil
		end, line := b.end, b.endLine
		putBatch(b)
		switch {
		case end == io.EOF:
			r.flushSubmits()
			r.err = io.EOF
			return
		case end != nil:
			r.err = fmt.Errorf("ctrace: line %d: %w", line, end)
			return
		}
	}
	if !r.running {
		r.running = true
		r.p.start()
	}
	r.cur, r.pos = <-r.p.out, 0
}

// applyRow applies one parsed row through its format's state machine.
func (r *Reader) applyRow(mode int, rw *row) error {
	if mode == modeJSONL {
		return r.applyJSON(rw.json, rw.kind)
	}
	return r.apply(&rw.raw)
}

// badf builds a row-level validation error.
func badf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}

// bstr views b as a string without copying. Only for callees that do
// not retain their argument — the strconv parsers qualify (they clone
// the input into any error they build).
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// checkRequest validates one resource request (relative to the largest
// machine, so [0,1] and finite).
func checkRequest(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badf("%s request is not finite", name)
	}
	if v < 0 || v > 1 {
		return badf("%s request %v outside [0,1]", name, v)
	}
	return nil
}

// checkTime validates and registers a row timestamp: non-negative and
// non-decreasing across the file.
func (r *Reader) checkTime(us int64) error {
	if us < 0 {
		return badf("negative timestamp %d", us)
	}
	if r.started && us < r.lastUS {
		return badf("timestamp %dus before previous row at %dus (trace must be time-ordered)", us, r.lastUS)
	}
	return nil
}

// accept commits a validated row timestamp, flushing submit groups from
// earlier instants first.
func (r *Reader) accept(us int64) {
	if !r.started || us > r.curUS {
		r.flushSubmits()
		r.curUS = us
	}
	r.started = true
	r.lastUS = us
}

// intern returns the canonical copy of a tenant name so every event of
// one user shares a single string.
func (r *Reader) intern(user []byte) string {
	if len(user) == 0 {
		return ""
	}
	if u, ok := r.users[string(user)]; ok { // no-alloc map probe
		return u
	}
	u := string(user)
	r.users[u] = u
	return u
}

// lookup finds a job's open-pod entry. A pod's task rows sit next to
// each other in a trace, so the entry the previous row found is tried
// before the map; last is always nil or an entry still in jobs.
func (r *Reader) lookup(job []byte) *jobState {
	if js := r.last; js != nil && js.id == string(job) {
		return js
	}
	js := r.jobs[string(job)] // no-alloc map probe
	if js != nil {
		r.last = js
	}
	return js
}

// takeJob pops a pooled entry (zeroed by emitEnd when recycled).
func (r *Reader) takeJob() *jobState {
	if n := len(r.free); n > 0 {
		js := r.free[n-1]
		r.free = r.free[:n-1]
		return js
	}
	return &jobState{}
}

// newJob materializes an entry for a job starting to build.
func (r *Reader) newJob(job, user []byte) *jobState {
	js := r.takeJob()
	js.id = string(job)
	js.user = r.intern(user)
	js.building = true
	return js
}

// csvRow is one parsed CSV line with its strings materialized — the
// fuzz surface's view (the hot path uses rawRow and never copies).
type csvRow struct {
	us       int64
	code     int
	job      string
	task     int
	user     string
	cpu, mem float64
}

// rawRow is the zero-copy parse of one task-level row. job and user
// alias a batch block: copy or intern them before the batch recycles.
type rawRow struct {
	us       int64
	code     int
	job      []byte
	task     int
	user     []byte
	cpu, mem float64
}

// apply is the task-level lifecycle state machine shared by the CSV
// format and the instance_events adapter: submits coalesce into pod
// submit groups, task ends decrement the job's live count and emit the
// pod end when it empties.
func (r *Reader) apply(row *rawRow) error {
	if err := r.checkTime(row.us); err != nil {
		return err
	}
	switch row.code {
	case 1, 7, 8: // SCHEDULE / UPDATE_PENDING / UPDATE_RUNNING: not lifecycle
		r.stats.Ignored++
		r.accept(row.us)
		return nil
	case 0: // SUBMIT
		if err := checkRequest("cpu", row.cpu); err != nil {
			return err
		}
		if err := checkRequest("mem", row.mem); err != nil {
			return err
		}
		js := r.lookup(row.job)
		if js != nil && !js.building {
			return badf("job %s submitted while already live", row.job)
		}
		r.accept(row.us)
		if js != nil && !js.building {
			// accept flushed the job's earlier-instant group: this row is
			// a duplicate submit of a now-live job.
			return badf("job %s submitted while already live", row.job)
		}
		if js == nil {
			js = r.newJob(row.job, row.user)
			r.jobs[js.id] = js
			r.order = append(r.order, js)
			r.last = js
		}
		js.ctrs = append(js.ctrs, trace.Container{CPU: row.cpu, Mem: row.mem})
		return nil
	case 2, 3, 4, 5, 6: // EVICT / FAIL / FINISH / KILL / LOST: task ends
		// accept flushes groups from earlier instants; an end at the
		// submit instant itself closes the same-instant groups explicitly
		// so the submit event precedes its own end.
		r.accept(row.us)
		js := r.lookup(row.job)
		if js == nil {
			return badf("end event for unknown job %s", row.job)
		}
		if js.building {
			r.flushSubmits()
		}
		if js.open--; js.open > 0 {
			return nil
		}
		kind := Kill
		if row.code == 4 {
			kind = Finish
		}
		r.emitEnd(row.us, kind, js)
		return nil
	}
	// code 0-8 was validated by the parsers; anything else is unreachable.
	return badf("unhandled event code %d", row.code)
}

// jsonRow is one parsed JSONL line: a pod-level event.
type jsonRow struct {
	US         int64  `json:"t_us"`
	Ev         string `json:"ev"`
	Pod        string `json:"pod"`
	User       string `json:"user"`
	Containers []struct {
		CPU float64 `json:"cpu"`
		Mem float64 `json:"mem"`
	} `json:"containers"`
}

// parseJSONLine parses (without applying) one JSONL row — the JSON half
// of the fuzz surface.
func parseJSONLine(line string) (jsonRow, EventKind, error) {
	return parseJSONRow([]byte(line))
}

// parseJSONRow parses one native pod-level JSON row.
func parseJSONRow(line []byte) (jsonRow, EventKind, error) {
	var row jsonRow
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&row); err != nil {
		return row, 0, badf("json: %v", err)
	}
	var kind EventKind
	switch strings.ToLower(row.Ev) {
	case "submit":
		kind = Submit
	case "finish":
		kind = Finish
	case "kill":
		kind = Kill
	default:
		return row, 0, badf("event %q (want submit/finish/kill)", row.Ev)
	}
	if row.Pod == "" {
		return row, 0, badf("empty pod id")
	}
	if kind == Submit && len(row.Containers) == 0 {
		return row, 0, badf("submit without containers")
	}
	for i, c := range row.Containers {
		if err := checkRequest(fmt.Sprintf("container %d cpu", i), c.CPU); err != nil {
			return row, 0, err
		}
		if err := checkRequest(fmt.Sprintf("container %d mem", i), c.Mem); err != nil {
			return row, 0, err
		}
	}
	return row, kind, nil
}

// applyJSON applies one parsed pod-level row.
func (r *Reader) applyJSON(row *jsonRow, kind EventKind) error {
	if err := r.checkTime(row.US); err != nil {
		return err
	}
	switch kind {
	case Submit:
		if r.jobs[row.Pod] != nil {
			return badf("pod %s submitted while already live", row.Pod)
		}
		r.accept(row.US)
		ctrs := make([]trace.Container, len(row.Containers))
		for i, c := range row.Containers {
			ctrs[i] = trace.Container{CPU: c.CPU, Mem: c.Mem}
		}
		js := r.takeJob()
		js.id, js.user = row.Pod, r.internString(row.User)
		js.ctrs, js.open = ctrs, 1
		r.jobs[js.id] = js
		r.stats.Pods++
		r.ready = append(r.ready, Event{
			Time: time.Duration(row.US) * time.Microsecond, Kind: Submit,
			Pod: js.id, User: js.user, Containers: ctrs,
		})
	default:
		js := r.jobs[row.Pod]
		if js == nil {
			return badf("end event for unknown pod %s", row.Pod)
		}
		r.accept(row.US)
		// The submit's recorded user wins: an end row with a missing or
		// different user must still partition to the submit's world.
		r.emitEnd(row.US, kind, js)
	}
	return nil
}

// internString is intern for names the decoder already materialized.
func (r *Reader) internString(user string) string {
	if user == "" {
		return ""
	}
	if u, ok := r.users[user]; ok {
		return u
	}
	r.users[user] = user
	return user
}

// flushSubmits releases the submit groups built at the current
// timestamp, in first-seen job order, and registers their live task
// counts. The per-job state survives until the job ends, so end events
// partition to the same world as their submit.
func (r *Reader) flushSubmits() {
	for _, js := range r.order {
		js.open = len(js.ctrs)
		js.building = false
		r.stats.Pods++
		r.ready = append(r.ready, Event{
			Time: time.Duration(r.curUS) * time.Microsecond, Kind: Submit,
			Pod: js.id, User: js.user, Containers: js.ctrs,
		})
	}
	r.order = r.order[:0]
}

// emitEnd queues a pod end event and recycles the job's state. The
// containers slice escaped into the Submit event, so it never returns
// to the pool.
func (r *Reader) emitEnd(us int64, kind EventKind, js *jobState) {
	r.stats.Ends++
	r.ready = append(r.ready, Event{
		Time: time.Duration(us) * time.Microsecond, Kind: kind, Pod: js.id, User: js.user,
	})
	delete(r.jobs, js.id)
	if r.last == js {
		r.last = nil
	}
	*js = jobState{}
	r.free = append(r.free, js)
}

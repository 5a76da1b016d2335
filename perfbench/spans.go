package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer records the spans of a traced run in memory. A span covers one
// call into a layer's public API, made from the benchmark's own code;
// spans nest through an explicit stack, so a span's parent is the span
// open when it began. Calls too fine to keep one by one (one per trace
// event) are folded into their enclosing span with add: they count as
// that span's children for self time, and the Chrome trace lists their
// totals in the span's args.
//
// The tracer is single-goroutine: traced runs execute serially. A tracer
// that is off records nothing and reads no clock, so the same traced
// code run with it measures the tracing overhead.
type tracer struct {
	off   bool
	t0    time.Time
	spans []span
	stack []int

	self  map[string]time.Duration // per-layer self time
	calls map[string]int           // per-layer call count
}

// span is one recorded interval. Start and End are offsets from the
// tracer's start; Parent is -1 for a root.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	children   time.Duration
	folded     map[string]*foldedCalls
	args       map[string]interface{}
}

type foldedCalls struct {
	Total time.Duration
	Calls int
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		self:  map[string]time.Duration{},
		calls: map[string]int{},
	}
}

// now is the current offset from the tracer's start.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t.off {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// returns its duration. Its self time is its duration minus its
// children's.
func (t *tracer) end(id int) time.Duration {
	if t.off {
		return 0
	}
	s := &t.spans[id]
	s.End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	dur := s.End - s.Start
	t.self[s.Name] += dur - s.children
	t.calls[s.Name]++
	if s.Parent >= 0 {
		t.spans[s.Parent].children += dur
	}
	return dur
}

// do runs fn inside a span named name and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// arg attaches a key/value to span id in the Chrome trace.
func (t *tracer) arg(id int, key string, v interface{}) {
	if t.off {
		return
	}
	s := &t.spans[id]
	if s.args == nil {
		s.args = map[string]interface{}{}
	}
	s.args[key] = v
}

// add folds one fine-grained call of d into the innermost open span.
func (t *tracer) add(name string, d time.Duration) {
	if t.off {
		return
	}
	t.self[name] += d
	t.calls[name]++
	if n := len(t.stack); n > 0 {
		s := &t.spans[t.stack[n-1]]
		s.children += d
		if s.folded == nil {
			s.folded = map[string]*foldedCalls{}
		}
		f := s.folded[name]
		if f == nil {
			f = &foldedCalls{}
			s.folded[name] = f
		}
		f.Total += d
		f.Calls++
	}
}

// stamp reads the clock for a later lap.
func (t *tracer) stamp() time.Time {
	if t.off {
		return time.Time{}
	}
	return time.Now()
}

// lap folds the call that ran since t0 into the innermost open span as
// name (see add) and returns the clock reading that ends it.
func (t *tracer) lap(name string, t0 time.Time) time.Time {
	if t.off {
		return t0
	}
	now := time.Now()
	t.add(name, now.Sub(t0))
	return now
}

// alternate runs op for d, and at least twice, with a tracer that is
// off and with tr in turn; prep, when not nil, runs untimed before each
// call; op is given the index of its pair. It returns the number of
// traced calls and the tracing overhead: the median wall time of the
// traced calls minus that of the untraced ones.
func alternate(d time.Duration, tr *tracer, prep func(i int), op func(t *tracer, pair int) error) (traced int, overhead float64, err error) {
	off := &tracer{off: true}
	ops, err := repeat(d, 2, prep, func(i int) error {
		if i%2 == 0 {
			return op(off, i/2)
		}
		return op(tr, i/2)
	})
	if err != nil {
		return 0, 0, err
	}
	if len(ops)%2 == 1 {
		ops = ops[:len(ops)-1] // the last call had no traced partner
	}
	var on, plain []opSample
	for i, o := range ops {
		if i%2 == 0 {
			plain = append(plain, o)
		} else {
			on = append(on, o)
		}
	}
	onWall, _ := medians(on)
	plainWall, _ := medians(plain)
	return len(on), onWall - plainWall, nil
}

// selfS is a layer's total self time in seconds.
func (t *tracer) selfS(name string) float64 { return t.self[name].Seconds() }

// chromeEvent is one entry of the Chrome trace-event JSON format, the
// same "JSON object" flavour the repository's -trace flag writes.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// writeChrome writes every recorded span to path as Chrome trace JSON:
// complete ("X") events in microseconds, each carrying its id, parent
// id and self time in args, plus the totals of the calls folded into it.
func (t *tracer) writeChrome(path, process string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	enc.Encode(chromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]interface{}{"name": process}})
	for id, s := range t.spans {
		args := map[string]interface{}{
			"id":      id,
			"parent":  s.Parent,
			"self_us": float64(s.End-s.Start-s.children) / 1e3,
		}
		for k, v := range s.args {
			args[k] = v
		}
		for name, fc := range s.folded {
			args[name+".total_us"] = float64(fc.Total) / 1e3
			args[name+".calls"] = fc.Calls
		}
		w.WriteByte(',')
		enc.Encode(chromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

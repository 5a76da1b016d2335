package ctrace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"nestless/internal/trace"
)

// refParseCSVRow is the reference CSV row parse: split on commas, trim
// every field, and hand each numeric field to strconv.
func refParseCSVRow(line []byte) (rawRow, error) {
	var row rawRow
	var f [7][]byte
	rest := line
	for i := 0; i < 6; i++ {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			return row, badf("want 7 fields time_us,event,job,task,user,cpu,mem; got %d", i+1)
		}
		f[i] = bytes.TrimSpace(rest[:j])
		rest = rest[j+1:]
	}
	if bytes.IndexByte(rest, ',') >= 0 {
		return row, badf("want 7 fields time_us,event,job,task,user,cpu,mem; got %d", 8+bytes.Count(rest, []byte{','}))
	}
	f[6] = bytes.TrimSpace(rest)

	us, err := strconv.ParseInt(string(f[0]), 10, 64)
	if err != nil {
		return row, badf("time_us: %v", err)
	}
	row.us = us
	switch {
	case bytes.EqualFold(f[1], evSubmit):
		row.code = 0
	case bytes.EqualFold(f[1], evFinish):
		row.code = 4
	case bytes.EqualFold(f[1], evKill):
		row.code = 5
	default:
		code, err := strconv.Atoi(string(f[1]))
		if err != nil || code < 0 || code > 8 {
			return row, badf("event %q is neither a Google code 0-8 nor submit/finish/kill", f[1])
		}
		row.code = code
	}
	row.job = f[2]
	if len(row.job) == 0 {
		return row, badf("empty job id")
	}
	task, err := strconv.Atoi(string(f[3]))
	if err != nil || task < 0 {
		return row, badf("task index %q is not a non-negative integer", f[3])
	}
	row.task = task
	row.user = f[4]
	if row.cpu, err = strconv.ParseFloat(string(f[5]), 64); err != nil {
		return row, badf("cpu: %v", err)
	}
	if row.mem, err = strconv.ParseFloat(string(f[6]), 64); err != nil {
		return row, badf("mem: %v", err)
	}
	return row, nil
}

// serialRead is the reference decoder: one goroutine scans, skips,
// sniffs, parses (CSV through refParseCSVRow) and applies each line in
// turn. It shares only the apply state machine with Reader.
func serialRead(data []byte, opts Options) ([]Event, Stats, error) {
	r, err := NewReader(bytes.NewReader(data), opts)
	if err != nil {
		return nil, Stats{}, err
	}
	sc, mode := r.p.sc, r.p.mode
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	var evs []Event
	var block []byte
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' || (mode == modeCSV && string(text) == header) {
			continue
		}
		if mode == modeJSONSniff {
			mode = modeJSONL
			if bytes.Contains(text, instanceSniff) {
				mode = modeInstance
			}
		}
		r.stats.Rows++
		switch mode {
		case modeJSONL:
			var jr jsonRow
			var kind EventKind
			if jr, kind, err = parseJSONRow(text); err == nil {
				err = r.applyJSON(&jr, kind)
			}
		case modeInstance:
			var raw rawRow
			block = block[:0]
			if err = parseInstanceRow(text, &block, &raw); err == nil {
				err = r.apply(&raw)
			}
		default:
			var raw rawRow
			if raw, err = refParseCSVRow(text); err == nil {
				err = r.apply(&raw)
			}
		}
		if err != nil {
			if opts.Lenient {
				r.stats.Skipped++
				continue
			}
			return append(evs, r.ready...), r.stats, fmt.Errorf("ctrace: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return append(evs, r.ready...), r.stats, fmt.Errorf("ctrace: line %d: %w", line+1, err)
	}
	r.flushSubmits()
	return append(evs, r.ready...), r.stats, nil
}

// readAll drains a Reader: every event, the stats, and the terminal
// error (nil at io.EOF).
func readAll(t *testing.T, data []byte, opts Options) ([]Event, Stats, error) {
	t.Helper()
	r := mustReader(t, bytes.NewReader(data), opts)
	var evs []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return evs, r.Stats(), nil
		}
		if err != nil {
			return evs, r.Stats(), err
		}
		evs = append(evs, ev)
	}
}

// sameEvents compares event streams with requests compared bit for bit
// (reflect.DeepEqual would let -0 equal 0).
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Time != y.Time || x.Kind != y.Kind || x.Pod != y.Pod || x.User != y.User || len(x.Containers) != len(y.Containers) {
			return false
		}
		for j, c := range x.Containers {
			d := y.Containers[j]
			if math.Float64bits(c.CPU) != math.Float64bits(d.CPU) || math.Float64bits(c.Mem) != math.Float64bits(d.Mem) {
				return false
			}
		}
	}
	return true
}

// checkAgainstSerial reads data with both decoders in both modes and
// fails on any difference in events, stats or the terminal error.
func checkAgainstSerial(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, opts := range []Options{{}, {Lenient: true}} {
		got, gotStats, gotErr := readAll(t, data, opts)
		want, wantStats, wantErr := serialRead(data, opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s lenient=%v: error %v, reference %v", name, opts.Lenient, gotErr, wantErr)
		}
		if gotStats != wantStats {
			t.Fatalf("%s lenient=%v: stats %+v, reference %+v", name, opts.Lenient, gotStats, wantStats)
		}
		if !sameEvents(got, want) {
			t.Fatalf("%s lenient=%v: %d events diverged from the reference's %d", name, opts.Lenient, len(got), len(want))
		}
	}
}

// mutateCSV applies one random edit to a CSV row: a padded or
// respelled field, a malformed field, a dropped or extra field.
func mutateCSV(rng *rand.Rand, line string) string {
	f := strings.Split(line, ",")
	if len(f) != 7 {
		return line
	}
	i := rng.Intn(7)
	switch rng.Intn(12) {
	case 0:
		f[i] = " " + f[i] + "\t"
	case 1:
		f[i] = " " + f[i] + " "
	case 2:
		f[i] = "+" + f[i]
	case 3:
		f[i] += "e0"
	case 4:
		f[i] = "0" + f[i] + "0000000000000000"
	case 5:
		f[i] = []string{"NaN", "-0", "Inf", "0x1p-4", "1_0", "", ".", "0.0000000000000001", "99999999999999999999"}[rng.Intn(9)]
	case 6:
		f[i] = "x" + f[i]
	case 7:
		f = append(f[:i], f[i+1:]...)
	case 8:
		f = append(f, "extra")
	case 9:
		f[1] = []string{"SUBMIT", "Finish", "kill", "9", "-1", "08", "+4"}[rng.Intn(7)]
	case 10:
		f[5] = strconv.FormatFloat(rng.Float64(), 'g', -1, 64)
	case 11:
		f[3] = strconv.Itoa(rng.Intn(1 << 20))
	}
	return strings.Join(f, ",")
}

// randomCSV renders a synthetic trace and then damages it: random row
// edits, swapped neighbours (time order), duplicated rows, comments,
// blank lines and stray headers.
func randomCSV(rng *rand.Rand, users int, rate float64) []byte {
	gcfg := trace.DefaultConfig(rng.Int63())
	gcfg.Users = users
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	var buf bytes.Buffer
	if err := Write(&buf, NewSynth(trace.Generate(gcfg)), CSV); err != nil {
		panic(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var out strings.Builder
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if i > 0 && rng.Float64() < rate {
			switch rng.Intn(6) {
			case 0, 1:
				line = mutateCSV(rng, line)
			case 2:
				if i+1 < len(lines) {
					lines[i], lines[i+1] = lines[i+1], lines[i]
					line = lines[i]
				}
			case 3:
				out.WriteString(line + "\n")
			case 4:
				out.WriteString([]string{"# note", "", "  \t", header}[rng.Intn(4)] + "\n")
			case 5:
				line = "  " + line + " "
			}
		}
		out.WriteString(line + "\n")
	}
	return []byte(out.String())
}

// withBatchRows runs fn at each batch size, restoring the default.
func withBatchRows(t *testing.T, sizes []int, fn func(t *testing.T)) {
	saved := batchRows
	t.Cleanup(func() { batchRows = saved })
	for _, n := range sizes {
		batchRows = n
		t.Run(fmt.Sprintf("batch%d", n), fn)
	}
}

// TestSerialEquivalence is the randomized differential test: damaged
// traces read identically — events, stats and the error naming the
// first bad line — through the two-stage reader and the serial
// reference, in strict and lenient mode, at batch sizes that cut rows
// at every boundary.
func TestSerialEquivalence(t *testing.T) {
	withBatchRows(t, []int{1, 2, 7, 512}, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < 40; i++ {
			rate := []float64{0, 0.0005, 0.01, 0.2}[i%4]
			checkAgainstSerial(t, fmt.Sprintf("csv %d", i), randomCSV(rng, 10+rng.Intn(30), rate))
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "golden.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(golden), "\n")
		for i := 0; i < 10; i++ {
			body := append([]string(nil), lines...)
			body[1+rng.Intn(len(body)-2)] = []string{"{}\n", "# c\n", "\n", `{"t_us":1,"ev":"kill","pod":"zz"}` + "\n"}[i%4]
			checkAgainstSerial(t, fmt.Sprintf("jsonl %d", i), []byte(strings.Join(body, "")))
		}
		ilines := strings.SplitAfter(instanceBody, "\n")
		for i := range ilines[:len(ilines)-1] {
			body := append([]string(nil), ilines...)
			body[i] = `{"time":"1","type":"99","collection_id":"5","instance_index":"0"}` + "\n"
			checkAgainstSerial(t, fmt.Sprintf("instance %d", i), []byte(strings.Join(body, "")))
		}
	})
}

// TestStrictLineNumbers pins the line a strict error names, counting
// the header, comments and blank lines, for both parse errors (found
// by the parse-ahead stage) and apply errors (found by Next), and for
// the scanner's own error.
func TestStrictLineNumbers(t *testing.T) {
	pre := header + "\n# comment\n1000,0,j1,0,alice,0.25,0.5\n\n1000,0,j1,1,alice,0.25,0.5\n"
	cases := []struct{ name, body, want string }{
		{"parse", pre + "2000,0,j2,0,bob,0.25\n3000,0,j3,0,bob,0.1,0.1\n",
			"ctrace: line 6: want 7 fields time_us,event,job,task,user,cpu,mem; got 6"},
		{"float", pre + "2000,0,j2,0,bob,0.25, 1e400\n",
			`ctrace: line 6: mem: strconv.ParseFloat: parsing "1e400": value out of range`},
		{"order", pre + "2000,0,j2,0,bob,0.25,0.5\n1500,0,j3,0,bob,0.25,0.5\n",
			"ctrace: line 7: timestamp 1500us before previous row at 2000us (trace must be time-ordered)"},
		{"unknown_end", pre + "#\n\n5000,4,j9,0,bob,0,0\n",
			"ctrace: line 8: end event for unknown job j9"},
		{"too_long", pre + strings.Repeat("x", maxLine+1) + "\n",
			"ctrace: line 6: bufio.Scanner: token too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readAll(t, []byte(tc.body), Options{})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
			if _, _, ref := serialRead([]byte(tc.body), Options{}); fmt.Sprint(ref) != tc.want {
				t.Fatalf("reference error %v, want %q", ref, tc.want)
			}
		})
	}
}

// TestBatchBoundaries reruns the reader's pinned behaviour with batches
// of 1, 2 and 7 rows: strict errors and their lines, lenient skip
// counts, the golden Write∘Read pins and the instance_events pin.
func TestBatchBoundaries(t *testing.T) {
	withBatchRows(t, []int{1, 2, 7}, func(t *testing.T) {
		t.Run("StrictRejections", TestStrictRejections)
		t.Run("StrictLineNumbers", TestStrictLineNumbers)
		t.Run("InstanceStrictRejections", TestInstanceStrictRejections)
		t.Run("LenientSkips", TestLenientSkips)
		t.Run("InstanceLenientSkips", TestInstanceLenientSkips)
		t.Run("Golden", TestGolden)
		t.Run("RoundTrip", TestRoundTrip)
		t.Run("InstanceEvents", TestInstanceEvents)
		t.Run("InstanceEventsMatchCSV", TestInstanceEventsMatchCSV)
		t.Run("InstanceSniff", TestInstanceSniff)
	})
}

// settle waits for the goroutine count to fall back to base: an exited
// goroutine leaves the count shortly after its last statement.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaderGoroutineLifecycle pins the parse-ahead stage's lifetime:
// NewReader starts nothing and allocates no batch; the producer exits
// at EOF, at the first strict error (parse or apply) and on Close in
// the middle of a stream.
func TestReaderGoroutineLifecycle(t *testing.T) {
	var buf bytes.Buffer
	gcfg := trace.DefaultConfig(5)
	gcfg.Users = 300
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	if err := Write(&buf, NewSynth(trace.Generate(gcfg)), CSV); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	base := runtime.NumGoroutine()

	// NewReader: no goroutine, and far less memory than one batch.
	const readers = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keep := make([]*Reader, readers)
	for i := range keep {
		keep[i] = mustReader(t, bytes.NewReader(data), Options{})
	}
	runtime.ReadMemStats(&after)
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("NewReader started goroutines: %d, baseline %d", n, base)
	}
	batchBytes := uint64(batchRows)*uint64(unsafe.Sizeof(row{})) + blockSize
	if per := (after.TotalAlloc - before.TotalAlloc) / readers; per >= batchBytes/4 {
		t.Fatalf("NewReader allocated %d B per reader (a batch is %d B)", per, batchBytes)
	}
	for _, r := range keep {
		if r.running || r.cur != nil {
			t.Fatal("NewReader started the parse-ahead stage")
		}
		r.Close()
	}

	t.Run("eof", func(t *testing.T) {
		base := runtime.NumGoroutine()
		if _, _, err := readAll(t, data, Options{}); err != nil {
			t.Fatal(err)
		}
		settle(t, base, "after EOF")
	})
	t.Run("strict_parse_error", func(t *testing.T) {
		base := runtime.NumGoroutine()
		bad := append(append([]byte(nil), data...), "oops\n"...)
		bad = append(bad, data[len(header)+1:]...)
		if _, _, err := readAll(t, bad, Options{}); err == nil {
			t.Fatal("strict reader accepted a malformed row")
		}
		settle(t, base, "after a strict parse error")
	})
	t.Run("strict_apply_error", func(t *testing.T) {
		// A row that parses but has a negative timestamp: an error only
		// Next finds, while the producer is far ahead.
		base := runtime.NumGoroutine()
		var bad []byte
		for i, l := range bytes.SplitAfter(data, []byte("\n")) {
			bad = append(bad, l...)
			if i == 100 {
				bad = append(bad, "-5,0,jx,0,u,0.1,0.1\n"...)
			}
		}
		if _, _, err := readAll(t, bad, Options{}); err == nil || !strings.Contains(err.Error(), "line 102:") {
			t.Fatalf("error %v, want one naming line 102", err)
		}
		settle(t, base, "after a strict apply error")
	})
	t.Run("close_mid_stream", func(t *testing.T) {
		base := runtime.NumGoroutine()
		r := mustReader(t, bytes.NewReader(data), Options{})
		for i := 0; i < 10; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if r.err != nil {
			t.Fatalf("stream ended before Close: %v", r.err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		settle(t, base, "after Close")
		if _, err := r.Next(); err != errClosed {
			t.Fatalf("Next after Close: %v", err)
		}
	})
}

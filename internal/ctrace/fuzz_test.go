package ctrace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseTraceLine drives both line parsers — the CSV task row and
// the JSONL pod row — plus a whole strict-mode reader pass over the
// input as a two-line document. Properties: no panics ever; anything
// the CSV parser accepts satisfies the row invariants the consumers
// rely on; the reader never yields an event that violates the
// normalized-event contract (non-negative time, known kind, non-empty
// pod id, finite in-range requests).
func FuzzParseTraceLine(f *testing.F) {
	seeds := []string{
		"1000,0,j1,0,alice,0.25,0.5",
		"1000,4,j1,0,alice,0,0",
		"1000,kill,j1,0,alice,0,0",
		"1000,SUBMIT,j1,1,alice,0.0625,0.125",
		`{"t_us":1000,"ev":"submit","pod":"p1","user":"a","containers":[{"cpu":0.25,"mem":0.5}]}`,
		`{"t_us":9000,"ev":"finish","pod":"p1"}`,
		// Malformed shapes the parser must reject without panicking.
		"1000,0,j1,0,alice,0.25",            // missing field
		"xx,0,j1,0,alice,0.25,0.5",          // bad time
		"-7,0,j1,0,alice,0.25,0.5",          // negative time
		"1000,0,j1,0,alice,NaN,0.5",         // NaN request
		"1000,0,j1,0,alice,-0.25,0.5",       // negative request
		"1000,0,j1,0,alice,1e308,0.5",       // out-of-range request
		"1000,0,,0,alice,0.25,0.5",          // empty job
		"1000,99,j1,0,alice,0.25,0.5",       // unknown code
		"1000,0,j1,-1,alice,0.25,0.5",       // negative task
		`{"t_us":1000,"ev":"submit"}`,       // no pod, no containers
		`{"t_us":-1,"ev":"kill","pod":"p"}`, // negative time
		`{"bogus":true}`,                    // unknown field soup
		"\x00\xff,",                         // binary garbage
		// 2019 instance_events shapes (whole-reader pass sniffs these
		// into the adapter via the collection_id field).
		`{"time":"1000","type":"0","collection_id":"389","instance_index":"0","user":"a","resource_request":{"cpus":"0.25","memory":0.5}}`,
		`{"time":"9000","type":"7","collection_id":"389","instance_index":"0"}`,
		`{"time":"1000","type":"11","collection_id":"1","instance_index":"0"}`, // unknown type
		`{"time":"1000","type":"0","collection_id":"0","instance_index":"0"}`,  // missing collection
		`{"time":"xx","type":"0","collection_id":"1","instance_index":"0"}`,    // bad INT64 string
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if row, err := parseCSVLine(line); err == nil {
			if row.code < 0 || row.code > 8 {
				t.Fatalf("accepted code %d", row.code)
			}
			if row.job == "" {
				t.Fatal("accepted empty job")
			}
			if row.task < 0 {
				t.Fatalf("accepted task %d", row.task)
			}
		}
		parseJSONLine(line)

		// Whole-reader pass: the line as a document body (with the CSV
		// header when it does not sniff as JSON). Strict mode may error;
		// it must not panic, and yielded events must be well-formed.
		body := line + "\n"
		if !strings.HasPrefix(strings.TrimLeft(line, " \t"), "{") {
			body = header + "\n" + body
		}
		r, err := NewReader(strings.NewReader(body), Options{})
		if err != nil {
			return
		}
		for {
			ev, err := r.Next()
			if err != nil {
				if err != io.EOF {
					return // rejected: fine
				}
				return
			}
			if ev.Time < 0 {
				t.Fatalf("yielded negative time %v", ev.Time)
			}
			if ev.Kind != Submit && ev.Kind != Finish && ev.Kind != Kill {
				t.Fatalf("yielded kind %v", ev.Kind)
			}
			if ev.Pod == "" {
				t.Fatal("yielded empty pod id")
			}
			for _, c := range ev.Containers {
				if math.IsNaN(c.CPU) || c.CPU < 0 || c.CPU > 1 ||
					math.IsNaN(c.Mem) || c.Mem < 0 || c.Mem > 1 {
					t.Fatalf("yielded out-of-range request %+v", c)
				}
			}
		}
	})
}

// FuzzFastDecode pins the fast numeric paths of the CSV row parse to
// strconv. Whenever scanUint or scanDecimal accepts a field, its value
// equals strconv.ParseInt / ParseFloat bit for bit. Whatever they
// decline reaches the strconv fallback: a row carrying the input in
// every numeric field parses to the same values and the same error
// text as the reference parse.
func FuzzFastDecode(f *testing.F) {
	// Inputs the fast decimal path must decline.
	declined := []string{
		"1e5", "1E-3", "+1", "-1", "-0", "NaN", "Inf", "infinity", "0x1p-2", "1_0",
		"", ".", "1.2.3", " 1", "1 ",
		"1234567890123456",   // 16 digits
		"0.0000000000000001", // 16 fractional digits
		"0.000000000000001",  // 16 digits, 15 of them fractional
		"0.1234567890123456",
	}
	for _, s := range declined {
		if _, _, ok := scanDecimal([]byte(s), 0); ok {
			f.Fatalf("scanDecimal accepted %q", s)
		}
	}
	for _, s := range []string{"+1", "-1", "1e3", "", " 1", "1234567890123456789"} {
		if _, _, ok := scanUint([]byte(s), 0); ok {
			f.Fatalf("scanUint accepted %q", s)
		}
	}
	seeds := append(declined,
		"0", "7", "000123", "123456789012345678", "9223372036854775807",
		"0.25", "0.0625", ".5", "5.", "0.1", "0.3", "123456789012345",
		"0.00000000000001", "123456.789012345", "99999999999999.0",
		"0.9999999999999999", "1,2", "12,x",
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		if v, end, ok := scanUint(b, 0); ok {
			want, err := strconv.ParseInt(s[:end], 10, 64)
			if err != nil || uint64(want) != v {
				t.Fatalf("scanUint(%q) = %d, strconv %d, %v", s, v, want, err)
			}
		}
		if v, end, ok := scanDecimal(b, 0); ok {
			want, err := strconv.ParseFloat(s[:end], 64)
			if err != nil || math.Float64bits(want) != math.Float64bits(v) {
				t.Fatalf("scanDecimal(%q) = %v, strconv %v, %v", s, v, want, err)
			}
		}
		// The input as every numeric field of a row (and as the event
		// code), through the full parse and the reference parse.
		field := strings.ReplaceAll(s, ",", "")
		for _, line := range []string{
			field + ",0,j,0,u,0.5,0.5",
			"1,0,j," + field + ",u,0.5,0.5",
			"1,0,j,0,u," + field + "," + field,
			"1," + field + ",j,0,u,0.5,0.5",
			s,
		} {
			var got rawRow
			gotErr := parseCSVRow([]byte(line), &got)
			want, wantErr := refParseCSVRow([]byte(line))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%q: error %v, reference %v", line, gotErr, wantErr)
			}
			if gotErr == nil && (got.us != want.us || got.code != want.code || got.task != want.task ||
				string(got.job) != string(want.job) || string(got.user) != string(want.user) ||
				math.Float64bits(got.cpu) != math.Float64bits(want.cpu) ||
				math.Float64bits(got.mem) != math.Float64bits(want.mem)) {
				t.Fatalf("%q: parsed %+v, reference %+v", line, got, want)
			}
		}
	})
}

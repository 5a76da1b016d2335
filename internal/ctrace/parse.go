package ctrace

// The parse-ahead stage. A Reader decodes in two stages: the producer
// goroutine started by the first Next owns the scanner and does every
// stateless step — line scan, trim, comment and header skip, format
// sniff and row parse — writing parsed rows into pooled batches; Next
// then applies those rows in file order on the caller's goroutine,
// where all stateful work (submit coalescing, the job map, the
// time-order check, strict errors and lenient skips) stays. A row's
// outcome depends only on its own bytes, so moving the parse to
// another goroutine cannot change a single event, counter or error.

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"sync"
)

// batchRows is the row count of one batch (a variable so tests can cut
// batch boundaries anywhere; the producer reads it once, at start).
var batchRows = 512

const (
	// blockSize is a batch's default byte block. A line that does not
	// fit the rest of the block ends the batch, and one longer than a
	// whole block gets a batch of its own with a block sized to it, so
	// a batch holds at most max(blockSize, maxLine) bytes of text.
	blockSize = 32 << 10
	// aheadBatches bounds the parsed batches queued for Next. With the
	// batch the producer fills and the one Next drains, at most
	// aheadBatches+2 batches exist per Reader. The producer is normally
	// ahead and blocked on a full queue, which only has to absorb
	// scheduling jitter between the two goroutines: depths 1, 4 and 16
	// read the same within noise on BenchmarkReaderCSV, so the middle
	// one is kept for headroom at a few hundred KB.
	aheadBatches = 4
	// keySlack is the block room reserved beyond the line itself: an
	// instance_events row formats its collection id into the block.
	keySlack = 20
)

// row is one data line parsed by the producer. Its byte fields alias
// the batch's block, which only ever grows by append: bytes a row
// aliases are never overwritten while the batch is out.
type row struct {
	line int      // physical line number, for error messages
	err  error    // stateless parse error; nil when the row parsed
	raw  rawRow   // CSV and instance_events rows
	json *jsonRow // JSONL rows
	kind EventKind
}

// batch is a run of consecutive parsed rows. end is set on the last
// batch of a stream: io.EOF, or the scanner's error at line endLine.
type batch struct {
	mode    int
	rows    []row
	block   []byte
	end     error
	endLine int
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// getBatch takes a pooled batch with room for rows and a block.
func getBatch(rows int) *batch {
	b := batchPool.Get().(*batch)
	if cap(b.rows) < rows {
		b.rows = make([]row, 0, rows)
	}
	if b.block == nil {
		b.block = make([]byte, 0, blockSize)
	}
	return b
}

// putBatch recycles a drained batch. Rows keep their stale contents
// until overwritten; an oversized block is dropped rather than pooled.
func putBatch(b *batch) {
	b.rows = b.rows[:0]
	b.block = b.block[:0]
	if cap(b.block) > blockSize {
		b.block = nil
	}
	b.end, b.endLine = nil, 0
	batchPool.Put(b)
}

// parser is the producer: before the first Next it is inert state
// NewReader filled in; after, its goroutine alone touches sc, mode and
// line.
type parser struct {
	sc      *bufio.Scanner
	mode    int
	lenient bool
	rows    int // batch size, fixed at start
	line    int

	out      chan *batch   // parsed batches, in file order
	done     chan struct{} // closed by the Reader to stop the producer
	stopOnce sync.Once
	exited   chan struct{} // closed when the producer returns
}

// start launches the producer goroutine.
func (p *parser) start() {
	p.rows = batchRows
	p.out = make(chan *batch, aheadBatches)
	p.done = make(chan struct{})
	p.exited = make(chan struct{})
	p.sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	go p.run()
}

// send hands a filled batch to Next; false once the Reader stopped the
// producer.
func (p *parser) send(b *batch) bool {
	b.mode = p.mode
	select {
	case p.out <- b:
		return true
	case <-p.done:
		return false
	}
}

// run scans and parses until EOF, the scanner's error, the first parse
// error in strict mode, or a stop.
func (p *parser) run() {
	defer close(p.exited)
	b := getBatch(p.rows)
	for p.sc.Scan() {
		p.line++
		line := bytes.TrimSpace(p.sc.Bytes())
		if len(line) == 0 || line[0] == '#' || (p.mode == modeCSV && string(line) == header) {
			continue
		}
		if p.mode == modeJSONSniff {
			p.mode = modeJSONL
			if bytes.Contains(line, instanceSniff) {
				p.mode = modeInstance
			}
		}
		need := len(line) + keySlack
		if len(b.rows) == p.rows || (len(b.rows) > 0 && cap(b.block)-len(b.block) < need) {
			if !p.send(b) {
				return
			}
			b = getBatch(p.rows)
		}
		if cap(b.block)-len(b.block) < need {
			b.block = make([]byte, 0, need)
		}
		b.rows = b.rows[:len(b.rows)+1]
		rw := &b.rows[len(b.rows)-1]
		rw.line, rw.err = p.line, nil
		switch p.mode {
		case modeJSONL:
			jr, kind, err := parseJSONRow(line)
			rw.json, rw.kind, rw.err = &jr, kind, err
		case modeInstance:
			rw.err = parseInstanceRow(line, &b.block, &rw.raw)
		default:
			// Parse a copy in the block: the scanner reuses its buffer.
			at := len(b.block)
			b.block = append(b.block, line...)
			rw.err = parseCSVRow(b.block[at:], &rw.raw)
		}
		if rw.err != nil && !p.lenient {
			p.send(b) // the first bad row ends a strict stream
			return
		}
	}
	b.end, b.endLine = p.sc.Err(), p.line+1
	if b.end == nil {
		b.end = io.EOF
	}
	p.send(b)
}

// Symbolic CSV event names (folded case, no per-row conversion).
var (
	evSubmit = []byte("submit")
	evFinish = []byte("finish")
	evKill   = []byte("kill")
)

// pow10 holds the powers of ten exactly representable as float64 that
// the fast decimal path divides by.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// fieldEnd is the index of the comma ending the field at line[i:], or
// len(line).
func fieldEnd(line []byte, i int) int {
	for ; i < len(line) && line[i] != ','; i++ {
	}
	return i
}

// scanUint decodes the field at line[i:] while it is plain decimal
// digits. ok is false when the field holds anything else or more than
// 18 digits (so it cannot overflow); end is the index of the field's
// terminating comma, or len(line), either way.
func scanUint(line []byte, i int) (v uint64, end int, ok bool) {
	start := i
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	if i < len(line) && line[i] != ',' {
		return 0, fieldEnd(line, i), false
	}
	n := i - start
	return v, i, n > 0 && n <= 18
}

// scanDecimal decodes the field at line[i:] when it is a plain decimal
// — digits with at most one '.', no sign or exponent — of 1 to 15
// digits. The mantissa is then below 10^15 < 2^53 and the divisor an
// exact power of ten, so the one correctly rounded division is the
// correctly rounded decimal value: bit-identical to strconv.ParseFloat
// (Clinger's fast path). ok is false for anything else; end is as for
// scanUint.
func scanDecimal(line []byte, i int) (f float64, end int, ok bool) {
	var m uint64
	start, dot := i, -1
	for ; i < len(line); i++ {
		c := line[i]
		if d := c - '0'; d <= 9 {
			m = m*10 + uint64(d)
			continue
		}
		if c != '.' || dot >= 0 {
			break
		}
		dot = i
	}
	if i < len(line) && line[i] != ',' {
		return 0, fieldEnd(line, i), false
	}
	digits, frac := i-start, 0
	if dot >= 0 {
		digits--
		frac = i - dot - 1
	}
	if digits == 0 || digits > 15 {
		return 0, i, false
	}
	return float64(m) / pow10[frac], i, true
}

// trim is bytes.TrimSpace for fields that rarely need it: only a field
// whose first or last byte could start or end a space is passed on.
func trim(b []byte) []byte {
	if len(b) > 0 && (spaceEdge(b[0]) || spaceEdge(b[len(b)-1])) {
		return bytes.TrimSpace(b)
	}
	return b
}

// spaceEdge reports whether c may be part of a Unicode space: an ASCII
// control or space byte, or any byte of a multi-byte rune.
func spaceEdge(c byte) bool { return c <= ' ' || c >= 0x80 }

// parseCSVLine parses (without applying) one CSV row. It is the CSV
// half of the fuzz surface.
func parseCSVLine(line string) (csvRow, error) {
	var raw rawRow
	if err := parseCSVRow([]byte(line), &raw); err != nil {
		return csvRow{}, err
	}
	return csvRow{
		us: raw.us, code: raw.code, job: string(raw.job),
		task: raw.task, user: string(raw.user), cpu: raw.cpu, mem: raw.mem,
	}, nil
}

// parseCSVRow parses one CSV row in place. One pass splits the seven
// fields and decodes the numeric ones that are plain digits or plain
// short decimals inline; a field it declines goes through the trimmed
// strconv path, which fixes every value, validation and error message.
// Errors are reported in field order after the field count is checked.
func parseCSVRow(line []byte, row *rawRow) error {
	us, e0, fastUS := scanUint(line, 0)
	if e0 == len(line) {
		return fieldCount(1)
	}
	e1 := fieldEnd(line, e0+1)
	if e1 == len(line) {
		return fieldCount(2)
	}
	e2 := fieldEnd(line, e1+1)
	if e2 == len(line) {
		return fieldCount(3)
	}
	task, e3, fastTask := scanUint(line, e2+1)
	if e3 == len(line) {
		return fieldCount(4)
	}
	e4 := fieldEnd(line, e3+1)
	if e4 == len(line) {
		return fieldCount(5)
	}
	cpu, e5, fastCPU := scanDecimal(line, e4+1)
	if e5 == len(line) {
		return fieldCount(6)
	}
	mem, e6, fastMem := scanDecimal(line, e5+1)
	if e6 < len(line) {
		return fieldCount(8 + bytes.Count(line[e5+1:], []byte{','}))
	}

	if fastUS {
		row.us = int64(us)
	} else {
		v, err := strconv.ParseInt(bstr(bytes.TrimSpace(line[:e0])), 10, 64)
		if err != nil {
			return badf("time_us: %v", err)
		}
		row.us = v
	}
	ev := trim(line[e0+1 : e1])
	switch {
	case len(ev) == 1 && ev[0] >= '0' && ev[0] <= '8':
		row.code = int(ev[0] - '0')
	case bytes.EqualFold(ev, evSubmit):
		row.code = 0
	case bytes.EqualFold(ev, evFinish):
		row.code = 4
	case bytes.EqualFold(ev, evKill):
		row.code = 5
	default:
		code, err := strconv.Atoi(bstr(ev))
		if err != nil || code < 0 || code > 8 {
			return badf("event %q is neither a Google code 0-8 nor submit/finish/kill", ev)
		}
		row.code = code
	}
	row.job = trim(line[e1+1 : e2])
	if len(row.job) == 0 {
		return badf("empty job id")
	}
	if fastTask && task <= maxInt {
		row.task = int(task)
	} else {
		tf := bytes.TrimSpace(line[e2+1 : e3])
		v, err := strconv.Atoi(bstr(tf))
		if err != nil || v < 0 {
			return badf("task index %q is not a non-negative integer", tf)
		}
		row.task = v
	}
	row.user = trim(line[e3+1 : e4])
	var err error
	if row.cpu = cpu; !fastCPU {
		if row.cpu, err = strconv.ParseFloat(bstr(bytes.TrimSpace(line[e4+1:e5])), 64); err != nil {
			return badf("cpu: %v", err)
		}
	}
	if row.mem = mem; !fastMem {
		if row.mem, err = strconv.ParseFloat(bstr(bytes.TrimSpace(line[e5+1:])), 64); err != nil {
			return badf("mem: %v", err)
		}
	}
	return nil
}

// fieldCount is the error for a row without exactly seven fields.
func fieldCount(got int) error {
	return badf("want 7 fields time_us,event,job,task,user,cpu,mem; got %d", got)
}

// maxInt bounds the fast task index on 32-bit platforms.
const maxInt = uint64(^uint(0) >> 1)

package ctrace

import (
	"bytes"
	"io"
	"testing"
	"time"

	"nestless/internal/trace"
)

// BenchmarkReaderCSV times the reader alone over an in-memory CSV trace
// of about 300k rows: both decode stages and the apply loop, no gzip or
// file I/O. It reports ns/row beside MB/s and the allocation counts.
//
//	go test -run '^$' -bench ReaderCSV -benchmem ./internal/ctrace
func BenchmarkReaderCSV(b *testing.B) {
	gcfg := trace.DefaultConfig(29)
	gcfg.Users = 20_000
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	var buf bytes.Buffer
	if err := Write(&buf, NewSynth(trace.Generate(gcfg)), CSV); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	var rows int
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		rows = r.Stats().Rows
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows*b.N), "ns/row")
}

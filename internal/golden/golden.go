// Package golden checks test output against recorded golden files.
//
// A golden file holds one line per pinned cell, "<cell> <fields...>",
// in the order the test produces them. Check compares a test's lines
// with the file line for line, so a changed cell, a missing cell and
// an extra cell all fail. Digest turns a result value into a fixed-size
// field: the SHA-256 of its JSON encoding, which is exact for every
// float (encoding/json writes the shortest round-tripping form).
package golden

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Digest is the hex SHA-256 of v's JSON encoding.
func Digest(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("golden: encode %T: %v", v, err)
	}
	return SHA256(string(b))
}

// SHA256 is the hex SHA-256 of s.
func SHA256(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

// read returns the lines of the golden file at path.
func read(t testing.TB, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// Check fails t unless got equals the golden file's lines exactly. Each
// differing line is reported under its cell name.
func Check(t testing.TB, path string, got []string) {
	t.Helper()
	want := read(t, path)
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(want):
			t.Errorf("%s: extra line %d: %s", path, i+1, got[i])
		case i >= len(got):
			t.Errorf("%s: missing line %d: %s", path, i+1, want[i])
		case got[i] != want[i]:
			cell, _, _ := strings.Cut(want[i], " ")
			t.Errorf("%s: %s changed:\n got: %s\nwant: %s", path, cell, got[i], want[i])
		}
	}
}

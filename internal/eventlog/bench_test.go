package eventlog

import (
	"bytes"
	"testing"
)

// scanRecords is how many records the Scan fixture holds.
const scanRecords = 1000

// scanFixture is a log of scanRecords Deposit records, the input
// BenchmarkScan times and TestScanAllocs gates.
func scanFixture(tb testing.TB) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < scanRecords; i++ {
		if err := w.Append(occ("Deposit", i*25)); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// scanAll scans data and fails unless every record came back.
func scanAll(tb testing.TB, data []byte) {
	occs, _, err := Scan(bytes.NewReader(data))
	if err != nil || len(occs) != scanRecords {
		tb.Fatalf("scan: %d, %v", len(occs), err)
	}
}

// An append allocates its record header and checksum, which escape
// through the io.Writer; the payload buffer is reused.
func TestAppendAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	o := occ("Deposit", 123)
	n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := w.Append(o); err != nil {
			t.Fatal(err)
		}
	})
	if n != 2 {
		t.Errorf("Append: %v allocs, want 2", n)
	}
}

// A scan allocates per record the payload and what decoding hands back,
// plus the reader and the growth of the result slice.
func TestScanAllocs(t *testing.T) {
	data := scanFixture(t)
	if n := testing.AllocsPerRun(20, func() { scanAll(t, data) }); n != 11003 {
		t.Errorf("Scan of %d records: %v allocs, want 11003", scanRecords, n)
	}
}

func BenchmarkAppend(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	o := occ("Deposit", 123)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/float64(b.N), "bytes/record")
}

func BenchmarkScan(b *testing.B) {
	data := scanFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, data)
	}
}

package network

import (
	"bytes"
	"fmt"
	"testing"
)

// TestReadINPLargeAllocBound holds ReadINP to FuzzReadINP's allocation
// bound on large generated single-section inputs, where per-line garbage
// and slice growth dominate: 200k junction, pipe and pump lines.
func TestReadINPLargeAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and parses ~8 MB of INP text")
	}
	const lines = 200_000
	for _, tc := range []struct {
		name, header string
		line         func(i int) string
	}{
		{"junctions", "[JUNCTIONS]\n", func(i int) string { return fmt.Sprintf("J%d %d\n", i, i%97) }},
		{"pipes", "[JUNCTIONS]\nA 10\nB 12\n[PIPES]\n", func(i int) string { return fmt.Sprintf("P%d A B 1 2 3\n", i) }},
		{"pumps", "[JUNCTIONS]\nA 10\nB 12\n[PUMPS]\n", func(i int) string { return fmt.Sprintf("U%d A B\n", i) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b bytes.Buffer
			b.WriteString(tc.header)
			for i := 0; i < lines; i++ {
				b.WriteString(tc.line(i))
			}
			n, alloc, err := readINPAlloc(b.Bytes())
			if err != nil {
				t.Fatalf("ReadINP: %v", err)
			}
			if got := len(n.Nodes) + len(n.Links); got < lines {
				t.Fatalf("read %d nodes and links, want at least %d", got, lines)
			}
			limit := uint64(inpAllocFactor*b.Len() + inpAllocSlack)
			t.Logf("%d bytes allocated %d (%.1f× input), limit %d", b.Len(), alloc, float64(alloc)/float64(b.Len()), limit)
			if alloc > limit {
				t.Fatalf("reading %d bytes allocated %d, limit %d", b.Len(), alloc, limit)
			}
		})
	}
}

package network

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// inpAllocFactor and inpAllocSlack bound what ReadINP may allocate for
// an input of n bytes: inpAllocFactor·n + inpAllocSlack. The slack
// covers the scanner's 64 KiB buffer (which grows to 1 MiB only for a
// line that long) and the parser's maps.
const (
	inpAllocFactor = 64
	inpAllocSlack  = 1 << 20
)

// readINPAlloc runs ReadINP over data and reports the bytes it
// allocated.
func readINPAlloc(data []byte) (*Network, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := ReadINP(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return n, after.TotalAlloc - before.TotalAlloc, err
}

// FuzzReadINP feeds arbitrary bytes to the INP reader. It must not
// panic and must allocate at most inpAllocFactor times the input plus
// inpAllocSlack. A refused input gets a typed error: a *ParseINPError
// naming the line, or bufio.ErrTooLong for a line over the scanner's
// 1 MiB limit. An accepted network goes through Validate; one that
// validates writes back out with WriteINP and reads in again with the
// same nodes and links. Seeds are TestReadINP's input, the EPA-NET
// network as WriteINP writes it and truncated copies of both.
func FuzzReadINP(f *testing.F) {
	var epanet bytes.Buffer
	if err := WriteINP(&epanet, BuildEPANet()); err != nil {
		f.Fatalf("WriteINP: %v", err)
	}
	for _, seed := range [][]byte{[]byte(sampleINP), epanet.Bytes()} {
		f.Add(seed)
		for _, frac := range []int{2, 3, 5} {
			f.Add(seed[:len(seed)*(frac-1)/frac])
		}
	}
	f.Add([]byte("[JUNCTIONS\nJ1 1\n"))
	f.Add([]byte("[PIPES]\nP1 A B 10 100 100\n"))
	f.Add([]byte("[TIMES]\nPATTERN TIMESTEP 12:30 AM\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, alloc, err := readINPAlloc(data)
		if limit := uint64(inpAllocFactor*len(data) + inpAllocSlack); alloc > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			var pe *ParseINPError
			if !errors.As(err, &pe) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if n != nil {
				t.Fatalf("error %v returned a network too", err)
			}
			return
		}
		if n.Validate() != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteINP(&buf, n); err != nil {
			t.Fatalf("WriteINP of a valid network: %v", err)
		}
		again, err := ReadINP(&buf)
		if err != nil {
			t.Fatalf("a valid network does not read back: %v\n%s", err, buf.Bytes())
		}
		if len(again.Nodes) != len(n.Nodes) || len(again.Links) != len(n.Links) {
			t.Fatalf("read back %d nodes, %d links; wrote %d, %d",
				len(again.Nodes), len(again.Links), len(n.Nodes), len(n.Links))
		}
	})
}

package network

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// This file implements a reader and writer for a practical subset of the
// EPANET INP text format, so networks built here can be exchanged with
// EPANET-compatible tooling and real INP files can be loaded.
//
// Supported sections: [TITLE], [JUNCTIONS], [RESERVOIRS], [TANKS], [PIPES],
// [PUMPS], [VALVES], [PATTERNS], [STATUS], [COORDINATES], [TIMES],
// [OPTIONS]. Unknown sections are skipped. Metric units only (LPS demand,
// meters elevation/length, millimeters diameter), matching the repository's
// SI-internal convention. Pumps use the parametric curve H = H0 − R·Qᴺ
// written as keyword triples "H0 <v> R <v> N <v>".

// ParseINPError reports a parse failure with its line number.
type ParseINPError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseINPError) Error() string {
	return fmt.Sprintf("inp: line %d: %s", e.Line, e.Msg)
}

type inpParser struct {
	net     *Network
	section string
	lineNo  int

	// Links go into net.Links as they are read, but their endpoints are
	// recorded by id (pendingLinks[i] for net.Links[i]) and resolved
	// after all node sections are read, since INP allows links before
	// nodes.
	pendingLinks []pendingLink
	statuses     map[string]LinkStatus
	coords       map[string][2]float64
	patternAccum map[string][]float64

	fields []string // the current line's fields, reused across lines
}

type pendingLink struct {
	line int
	from string
	to   string
}

// ReadINP parses a subset of the EPANET INP format from r.
func ReadINP(r io.Reader) (*Network, error) {
	p := &inpParser{
		net:          New(""),
		statuses:     make(map[string]LinkStatus),
		coords:       make(map[string][2]float64),
		patternAccum: make(map[string][]float64),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		p.lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			end := strings.IndexByte(line, ']')
			if end < 0 {
				return nil, &ParseINPError{Line: p.lineNo, Msg: "unterminated section header"}
			}
			p.section = strings.ToUpper(strings.TrimSpace(line[1:end]))
			continue
		}
		p.fields = appendFields(p.fields[:0], line)
		if err := p.handleLine(line, p.fields); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("inp: read: %w", err)
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return p.net, nil
}

func (p *inpParser) errf(format string, args ...interface{}) error {
	return &ParseINPError{Line: p.lineNo, Msg: fmt.Sprintf(format, args...)}
}

// appendFields appends the fields of s to dst, split as strings.Fields
// splits them (around runs of unicode.IsSpace), without allocating a
// new slice per line.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// reserve returns s with room for one more element, doubling its
// capacity when full. append grows a long slice by 1.25×, which over a
// large section allocates about five times the final size; doubling
// keeps that under four.
func reserve[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return append(make([]T, 0, 2*cap(s)+16), s...)
}

// addNode adds a node, growing Nodes by doubling.
func (p *inpParser) addNode(node Node) error {
	p.net.Nodes = reserve(p.net.Nodes)
	if _, err := p.net.AddNode(node); err != nil {
		return p.errf("%v", err)
	}
	return nil
}

// addLink records a link read before its endpoints are known.
func (p *inpParser) addLink(link Link, from, to string) {
	p.net.Links = append(reserve(p.net.Links), link)
	p.pendingLinks = append(reserve(p.pendingLinks), pendingLink{line: p.lineNo, from: from, to: to})
}

func (p *inpParser) handleLine(line string, f []string) error {
	switch p.section {
	case "TITLE":
		if p.net.Name == "" {
			p.net.Name = line
		}
	case "JUNCTIONS":
		return p.parseJunction(f)
	case "RESERVOIRS":
		return p.parseReservoir(f)
	case "TANKS":
		return p.parseTank(f)
	case "PIPES":
		return p.parsePipe(f)
	case "PUMPS":
		return p.parsePump(f)
	case "VALVES":
		return p.parseValve(f)
	case "PATTERNS":
		return p.parsePattern(f)
	case "STATUS":
		return p.parseStatus(f)
	case "COORDINATES":
		return p.parseCoordinate(f)
	case "TIMES":
		return p.parseTimes(f)
	case "OPTIONS":
		return p.parseOptions(f)
	default:
		// Unknown or unsupported section: skip silently.
	}
	return nil
}

func (p *inpParser) float(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, p.errf("invalid number %q", s)
	}
	return v, nil
}

func (p *inpParser) parseJunction(f []string) error {
	// ID  Elevation  [Demand-LPS]  [Pattern]
	if len(f) < 2 {
		return p.errf("junction needs at least id and elevation")
	}
	elev, err := p.float(f[1])
	if err != nil {
		return err
	}
	node := Node{ID: f[0], Type: Junction, Elevation: elev}
	if len(f) >= 3 {
		d, err := p.float(f[2])
		if err != nil {
			return err
		}
		node.BaseDemand = d / 1000.0 // LPS → m³/s
	}
	if len(f) >= 4 {
		node.PatternID = f[3]
	}
	return p.addNode(node)
}

func (p *inpParser) parseReservoir(f []string) error {
	// ID  Head
	if len(f) < 2 {
		return p.errf("reservoir needs id and head")
	}
	head, err := p.float(f[1])
	if err != nil {
		return err
	}
	return p.addNode(Node{ID: f[0], Type: Reservoir, Elevation: head})
}

func (p *inpParser) parseTank(f []string) error {
	// ID  Elevation  InitLevel  MinLevel  MaxLevel  Diameter
	if len(f) < 6 {
		return p.errf("tank needs id, elevation, init/min/max level and diameter")
	}
	vals := make([]float64, 5)
	for i := 0; i < 5; i++ {
		v, err := p.float(f[i+1])
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return p.addNode(Node{
		ID: f[0], Type: Tank,
		Elevation: vals[0], InitLevel: vals[1], MinLevel: vals[2],
		MaxLevel: vals[3], TankDiameter: vals[4],
	})
}

func (p *inpParser) parsePipe(f []string) error {
	// ID  Node1  Node2  Length-m  Diameter-mm  Roughness  [MinorLoss] [Status]
	if len(f) < 6 {
		return p.errf("pipe needs id, endpoints, length, diameter, roughness")
	}
	length, err := p.float(f[3])
	if err != nil {
		return err
	}
	diam, err := p.float(f[4])
	if err != nil {
		return err
	}
	rough, err := p.float(f[5])
	if err != nil {
		return err
	}
	link := Link{
		ID: f[0], Type: Pipe,
		Length: length, Diameter: diam / 1000.0, Roughness: rough,
	}
	if len(f) >= 7 {
		ml, err := p.float(f[6])
		if err != nil {
			return err
		}
		link.MinorLoss = ml
	}
	if len(f) >= 8 && strings.EqualFold(f[7], "closed") {
		link.Status = Closed
	}
	p.addLink(link, f[1], f[2])
	return nil
}

func (p *inpParser) parsePump(f []string) error {
	// ID  Node1  Node2  H0 <v>  R <v>  N <v>
	if len(f) < 3 {
		return p.errf("pump needs id and endpoints")
	}
	link := Link{ID: f[0], Type: Pump, PumpN: 2} // default exponent
	for i := 3; i+1 < len(f); i += 2 {
		v, err := p.float(f[i+1])
		if err != nil {
			return err
		}
		switch strings.ToUpper(f[i]) {
		case "H0":
			link.PumpH0 = v
		case "R":
			link.PumpR = v
		case "N":
			link.PumpN = v
		default:
			return p.errf("unknown pump keyword %q", f[i])
		}
	}
	p.addLink(link, f[1], f[2])
	return nil
}

func (p *inpParser) parseValve(f []string) error {
	// ID  Node1  Node2  Diameter-mm  Type  Setting  [MinorLoss]
	if len(f) < 6 {
		return p.errf("valve needs id, endpoints, diameter, type, setting")
	}
	diam, err := p.float(f[3])
	if err != nil {
		return err
	}
	setting, err := p.float(f[5])
	if err != nil {
		return err
	}
	link := Link{
		ID: f[0], Type: Valve,
		Diameter: diam / 1000.0, MinorLoss: setting, Length: 5,
	}
	p.addLink(link, f[1], f[2])
	return nil
}

func (p *inpParser) parsePattern(f []string) error {
	// ID  mult mult mult ...  (may span multiple lines)
	if len(f) < 2 {
		return p.errf("pattern needs id and at least one multiplier")
	}
	for _, s := range f[1:] {
		v, err := p.float(s)
		if err != nil {
			return err
		}
		p.patternAccum[f[0]] = append(p.patternAccum[f[0]], v)
	}
	return nil
}

func (p *inpParser) parseStatus(f []string) error {
	// LinkID  Open|Closed
	if len(f) < 2 {
		return p.errf("status needs link id and state")
	}
	switch strings.ToLower(f[1]) {
	case "open":
		p.statuses[f[0]] = Open
	case "closed":
		p.statuses[f[0]] = Closed
	default:
		return p.errf("unknown status %q", f[1])
	}
	return nil
}

func (p *inpParser) parseCoordinate(f []string) error {
	// NodeID  X  Y
	if len(f) < 3 {
		return p.errf("coordinate needs node id, x, y")
	}
	x, err := p.float(f[1])
	if err != nil {
		return err
	}
	y, err := p.float(f[2])
	if err != nil {
		return err
	}
	p.coords[f[0]] = [2]float64{x, y}
	return nil
}

func (p *inpParser) parseTimes(f []string) error {
	// PATTERN TIMESTEP h:mm[:ss] [AM|PM]  (other TIMES lines ignored)
	if len(f) >= 3 && strings.EqualFold(f[0], "pattern") && strings.EqualFold(f[1], "timestep") {
		clock := f[2]
		// EPANET writes the meridiem as its own field ("6:30 PM").
		if len(f) >= 4 && (strings.EqualFold(f[3], "am") || strings.EqualFold(f[3], "pm")) {
			clock += " " + f[3]
		}
		d, err := parseClock(clock)
		if err != nil {
			return p.errf("%v", err)
		}
		p.net.PatternStep = d
	}
	return nil
}

func (p *inpParser) parseOptions(f []string) error {
	if len(f) >= 2 && strings.EqualFold(f[0], "units") {
		if !strings.EqualFold(f[1], "LPS") {
			return p.errf("unsupported units %q (only LPS is supported)", f[1])
		}
	}
	return nil
}

// parseClock parses the clock-time formats EPANET emits — "H:MM",
// "H:MM:SS", plain (possibly fractional) hours, each with an optional
// "AM"/"PM" suffix (attached or space-separated) — into a duration.
func parseClock(s string) (time.Duration, error) {
	clock := strings.ToUpper(strings.TrimSpace(s))
	meridiem := ""
	for _, suf := range []string{"AM", "PM"} {
		if strings.HasSuffix(clock, suf) {
			meridiem = suf
			clock = strings.TrimSpace(strings.TrimSuffix(clock, suf))
			break
		}
	}
	var d time.Duration
	parts := strings.Split(clock, ":")
	switch len(parts) {
	case 1:
		hv, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || hv < 0 {
			return 0, fmt.Errorf("invalid clock time %q", s)
		}
		d = time.Duration(hv * float64(time.Hour))
	case 2, 3:
		units := [...]time.Duration{time.Hour, time.Minute, time.Second}
		for i, part := range parts {
			v, err := strconv.Atoi(part)
			if err != nil || v < 0 || (i > 0 && v >= 60) {
				return 0, fmt.Errorf("invalid clock time %q", s)
			}
			d += time.Duration(v) * units[i]
		}
	default:
		return 0, fmt.Errorf("invalid clock time %q", s)
	}
	if meridiem != "" {
		// 12-hour convention: 12 AM is midnight, 12 PM is noon.
		h := d / time.Hour
		if h < 1 || h > 12 {
			return 0, fmt.Errorf("invalid clock time %q", s)
		}
		if meridiem == "PM" && h != 12 {
			d += 12 * time.Hour
		}
		if meridiem == "AM" && h == 12 {
			d -= 12 * time.Hour
		}
	}
	return d, nil
}

func (p *inpParser) finish() error {
	for id, mult := range p.patternAccum {
		p.net.Patterns[id] = Pattern{ID: id, Multipliers: mult}
	}
	// Each link is re-added through AddLink, which checks it and indexes
	// its id. AddLink appends at index len(p.net.Links) ≤ i, so it never
	// overwrites a link not yet read.
	links := p.net.Links
	p.net.Links = links[:0]
	p.net.linkIndex = make(map[string]int, len(links))
	for i, pl := range p.pendingLinks {
		link := links[i]
		from, ok := p.net.NodeIndex(pl.from)
		if !ok {
			return &ParseINPError{Line: pl.line, Msg: fmt.Sprintf("link %q references unknown node %q", link.ID, pl.from)}
		}
		to, ok := p.net.NodeIndex(pl.to)
		if !ok {
			return &ParseINPError{Line: pl.line, Msg: fmt.Sprintf("link %q references unknown node %q", link.ID, pl.to)}
		}
		link.From, link.To = from, to
		if st, ok := p.statuses[link.ID]; ok {
			link.Status = st
		}
		if _, err := p.net.AddLink(link); err != nil {
			return &ParseINPError{Line: pl.line, Msg: err.Error()}
		}
	}
	for id, xy := range p.coords {
		if idx, ok := p.net.NodeIndex(id); ok {
			p.net.Nodes[idx].X = xy[0]
			p.net.Nodes[idx].Y = xy[1]
		}
	}
	return nil
}

// WriteINP serializes the network in the INP subset understood by ReadINP.
// ReadINP(WriteINP(n)) reproduces the network.
func WriteINP(w io.Writer, n *Network) error {
	bw := bufio.NewWriter(w)
	p := func(format string, args ...interface{}) {
		fmt.Fprintf(bw, format, args...)
	}
	p("[TITLE]\n%s\n\n", n.Name)

	p("[JUNCTIONS]\n;ID Elevation Demand-LPS Pattern\n")
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		if nd.Type != Junction {
			continue
		}
		p("%s %.4f %.6f %s\n", nd.ID, nd.Elevation, nd.BaseDemand*1000, patternOrDash(nd.PatternID))
	}
	p("\n[RESERVOIRS]\n;ID Head\n")
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		if nd.Type == Reservoir {
			p("%s %.4f\n", nd.ID, nd.Elevation)
		}
	}
	p("\n[TANKS]\n;ID Elevation Init Min Max Diameter\n")
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		if nd.Type == Tank {
			p("%s %.4f %.4f %.4f %.4f %.4f\n", nd.ID, nd.Elevation, nd.InitLevel, nd.MinLevel, nd.MaxLevel, nd.TankDiameter)
		}
	}

	p("\n[PIPES]\n;ID Node1 Node2 Length Diameter-mm Roughness MinorLoss Status\n")
	for i := range n.Links {
		l := &n.Links[i]
		if l.Type != Pipe {
			continue
		}
		p("%s %s %s %.4f %.4f %.4f %.4f %s\n",
			l.ID, n.Nodes[l.From].ID, n.Nodes[l.To].ID,
			l.Length, l.Diameter*1000, l.Roughness, l.MinorLoss, statusWord(l.Status))
	}
	p("\n[PUMPS]\n;ID Node1 Node2 H0 v R v N v\n")
	for i := range n.Links {
		l := &n.Links[i]
		if l.Type != Pump {
			continue
		}
		p("%s %s %s H0 %.4f R %.4f N %.4f\n",
			l.ID, n.Nodes[l.From].ID, n.Nodes[l.To].ID, l.PumpH0, l.PumpR, l.PumpN)
	}
	p("\n[VALVES]\n;ID Node1 Node2 Diameter-mm Type Setting\n")
	for i := range n.Links {
		l := &n.Links[i]
		if l.Type != Valve {
			continue
		}
		p("%s %s %s %.4f TCV %.4f\n",
			l.ID, n.Nodes[l.From].ID, n.Nodes[l.To].ID, l.Diameter*1000, l.MinorLoss)
	}

	p("\n[STATUS]\n")
	for i := range n.Links {
		l := &n.Links[i]
		if l.Status == Closed {
			p("%s Closed\n", l.ID)
		}
	}

	p("\n[PATTERNS]\n")
	ids := make([]string, 0, len(n.Patterns))
	for id := range n.Patterns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		pat := n.Patterns[id]
		for start := 0; start < len(pat.Multipliers); start += 6 {
			end := start + 6
			if end > len(pat.Multipliers) {
				end = len(pat.Multipliers)
			}
			p("%s", id)
			for _, m := range pat.Multipliers[start:end] {
				p(" %.4f", m)
			}
			p("\n")
		}
	}

	p("\n[COORDINATES]\n;Node X Y\n")
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		p("%s %.4f %.4f\n", nd.ID, nd.X, nd.Y)
	}

	hours := int(n.PatternStep / time.Hour)
	minutes := int(n.PatternStep/time.Minute) % 60
	p("\n[TIMES]\nPATTERN TIMESTEP %d:%02d\n", hours, minutes)
	p("\n[OPTIONS]\nUNITS LPS\n\n[END]\n")
	return bw.Flush()
}

func patternOrDash(id string) string {
	if id == "" {
		return ";"
	}
	return id
}

func statusWord(s LinkStatus) string {
	if s == Closed {
		return "Closed"
	}
	return "Open"
}

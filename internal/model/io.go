package model

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The flexpl text format is a minimal, line-oriented placement exchange
// format used by the cmd/ tools and examples:
//
//	flexpl 1
//	design <name>
//	die <numSitesX> <numRows> <rowHeightSites>
//	cells <n>
//	<name> <gx> <gy> <w> <h> <parity:any|even|odd> <fixed:0|1> [<x> <y>]
//
// When the optional current position (x, y) is omitted it defaults to the
// global-placement position.

// Encode writes the layout in flexpl format.
func Encode(w io.Writer, l *Layout) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "flexpl 1")
	fmt.Fprintf(bw, "design %s\n", l.Name)
	fmt.Fprintf(bw, "die %d %d %d\n", l.NumSitesX, l.NumRows, l.RowHeight)
	fmt.Fprintf(bw, "cells %d\n", len(l.Cells))
	for i := range l.Cells {
		c := &l.Cells[i]
		fixed := 0
		if c.Fixed {
			fixed = 1
		}
		if c.X == c.GX && c.Y == c.GY {
			fmt.Fprintf(bw, "%s %d %d %d %d %s %d\n", c.Name, c.GX, c.GY, c.W, c.H, c.Parity, fixed)
		} else {
			fmt.Fprintf(bw, "%s %d %d %d %d %s %d %d %d\n", c.Name, c.GX, c.GY, c.W, c.H, c.Parity, fixed, c.X, c.Y)
		}
	}
	return bw.Flush()
}

// Decode reads a layout in flexpl format. Besides the syntax it enforces
// the structural facts every engine indexes by: the die has at least one
// site, row and row-height unit; every cell is at least 1x1; every
// movable cell fits the die (width <= sites, height <= rows); and every
// fixed cell lies wholly inside the die, where no engine can move it from.
// Each rejection names the line, the cell and the rule it broke.
func Decode(r io.Reader) (*Layout, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	next := func() (string, error) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("flexpl line %d: %s", line, fmt.Sprintf(format, args...))
	}

	s, err := next()
	if err != nil {
		return nil, err
	}
	if s != "flexpl 1" {
		return nil, errf("bad header %q", s)
	}
	l := &Layout{}
	if s, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(s, "design %s", &l.Name); err != nil {
		return nil, errf("bad design line %q", s)
	}
	if s, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(s, "die %d %d %d", &l.NumSitesX, &l.NumRows, &l.RowHeight); err != nil {
		return nil, errf("bad die line %q", s)
	}
	if l.NumSitesX < 1 || l.NumRows < 1 || l.RowHeight < 1 {
		return nil, errf("die %d %d %d: sites, rows and row height must each be >= 1",
			l.NumSitesX, l.NumRows, l.RowHeight)
	}
	var n int
	if s, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(s, "cells %d", &n); err != nil {
		return nil, errf("bad cells line %q", s)
	}
	if n < 0 {
		return nil, errf("negative cell count %d", n)
	}
	// Cap the pre-allocation: the header's count is untrusted (flexserve
	// decodes raw request bodies), and each claimed cell still needs a line
	// of input, so a lying header fails cheaply instead of sizing a huge
	// allocation up front.
	capHint := n
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	l.Cells = make([]Cell, 0, capHint)
	for i := 0; i < n; i++ {
		if s, err = next(); err != nil {
			return nil, fmt.Errorf("flexpl: expected %d cells, got %d: %w", n, i, err)
		}
		f := strings.Fields(s)
		if len(f) != 7 && len(f) != 9 {
			return nil, errf("bad cell line %q", s)
		}
		var c Cell
		c.ID = i
		c.Name = f[0]
		ints := make([]int, 0, 6)
		for _, k := range []int{1, 2, 3, 4, 6} {
			var v int
			if _, err := fmt.Sscanf(f[k], "%d", &v); err != nil {
				return nil, errf("bad integer %q", f[k])
			}
			ints = append(ints, v)
		}
		c.GX, c.GY, c.W, c.H = ints[0], ints[1], ints[2], ints[3]
		switch f[5] {
		case "any":
			c.Parity = ParityAny
		case "even":
			c.Parity = ParityEven
		case "odd":
			c.Parity = ParityOdd
		default:
			return nil, errf("bad parity %q", f[5])
		}
		switch ints[4] {
		case 0:
			c.Fixed = false
		case 1:
			c.Fixed = true
		default:
			return nil, errf("bad fixed flag %d", ints[4])
		}
		c.X, c.Y = c.GX, c.GY
		if len(f) == 9 {
			if _, err := fmt.Sscanf(f[7], "%d", &c.X); err != nil {
				return nil, errf("bad x %q", f[7])
			}
			if _, err := fmt.Sscanf(f[8], "%d", &c.Y); err != nil {
				return nil, errf("bad y %q", f[8])
			}
		}
		if c.W < 1 || c.H < 1 {
			return nil, errf("cell %s is %dx%d: width and height must each be >= 1", c.Name, c.W, c.H)
		}
		if !c.Fixed && c.W > l.NumSitesX {
			return nil, errf("movable cell %s is %d sites wide: width must be <= the die's %d sites",
				c.Name, c.W, l.NumSitesX)
		}
		if !c.Fixed && c.H > l.NumRows {
			return nil, errf("movable cell %s is %d rows tall: height must be <= the die's %d rows",
				c.Name, c.H, l.NumRows)
		}
		if c.Fixed && (c.X < 0 || c.Y < 0 || c.X+c.W > l.NumSitesX || c.Y+c.H > l.NumRows) {
			return nil, errf("fixed cell %s spans sites [%d,%d) x rows [%d,%d): it must lie wholly inside the die's %d sites x %d rows",
				c.Name, c.X, c.X+c.W, c.Y, c.Y+c.H, l.NumSitesX, l.NumRows)
		}
		l.Cells = append(l.Cells, c)
	}
	return l, nil
}

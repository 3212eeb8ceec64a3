package experiment

import (
	"fmt"
	"math"
	"strings"
)

// Plot renders a timing Result as an ASCII BNF chart in the paper's
// orientation: average packet latency (ns) on the vertical axis against
// delivered throughput (flits/router/ns) on the horizontal axis, one
// glyph per series. It is deliberately terminal-sized; cmd/sweep -plot
// uses it so curve shapes (saturation knees, rotary retention, collapse)
// are visible without external tooling.
func (r *Result) Plot(width, height int) string {
	if width < 20 {
		width = 64
	}
	if height < 8 {
		height = 20
	}
	glyphs := []byte{'P', 'w', 'W', 's', 'S', 'x', '+', 'o'}

	// Axis ranges over all points.
	maxX, maxY := 0.0, 0.0
	for _, s := range r.Series {
		for _, pt := range s.Points {
			maxX = math.Max(maxX, pt.Throughput)
			maxY = math.Max(maxY, pt.AvgLatencyNS)
		}
	}
	if maxX == 0 || maxY == 0 {
		return r.Spec.Name + " (no data)\n"
	}
	maxX *= 1.05
	maxY *= 1.05

	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range r.Series {
		g := glyphs[si%len(glyphs)]
		for _, pt := range s.Points {
			x := int(pt.Throughput / maxX * float64(width-1))
			y := height - 1 - int(pt.AvgLatencyNS/maxY*float64(height-1))
			if x >= 0 && x < width && y >= 0 && y < height {
				if grid[y][x] == ' ' {
					grid[y][x] = g
				} else if grid[y][x] != g {
					grid[y][x] = '*' // overlapping series
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Spec.Name)
	fmt.Fprintf(&b, "latency(ns) up to %.0f | throughput(flits/router/ns) up to %.2f\n", maxY/1.05, maxX/1.05)
	for y := 0; y < height; y++ {
		b.WriteByte('|')
		b.Write(grid[y])
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	for si, s := range r.Series {
		fmt.Fprintf(&b, "  %c = %s", glyphs[si%len(glyphs)], s.Label)
	}
	b.WriteString("  * = overlap\n")
	return b.String()
}

package obs

import (
	"fmt"
	"strings"
)

// Table renders header and rows for a terminal: left-aligned columns two
// spaces apart, each as wide as its widest cell, with a rule of dashes
// under the header. A row has at most as many cells as header.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for _, r := range append([][]string{header}, rows...) {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	rule := make([]string, len(header))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	var sb strings.Builder
	for _, r := range append([][]string{header, rule}, rows...) {
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

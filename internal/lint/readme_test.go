package lint

import (
	"os"
	"strings"
	"testing"
)

// TestReadmeRuleTableInSync holds README.md's rule table to the
// registry exactly: same rules, same order, and a contract column
// that is the rule's Doc string verbatim. A rule added, renamed, or
// re-documented without touching the README fails here.
func TestReadmeRuleTableInSync(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ name, doc string }
	var rows []row
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		// "| `name` | doc |" splits into 4 cells with empty ends.
		if len(cells) != 4 {
			t.Fatalf("malformed rule-table row (want 2 columns): %q", line)
		}
		rows = append(rows, row{
			name: strings.Trim(strings.TrimSpace(cells[1]), "`"),
			doc:  strings.TrimSpace(cells[2]),
		})
	}
	rules := Rules()
	if len(rows) != len(rules) {
		var got, want []string
		for _, r := range rows {
			got = append(got, r.name)
		}
		for _, r := range rules {
			want = append(want, r.Name)
		}
		t.Fatalf("README rule table has %d rows [%s], registry has %d rules [%s]",
			len(rows), strings.Join(got, ", "), len(rules), strings.Join(want, ", "))
	}
	for i, r := range rules {
		if rows[i].name != r.Name {
			t.Errorf("row %d: README names %q, registry names %q (order must match)",
				i, rows[i].name, r.Name)
			continue
		}
		if rows[i].doc != r.Doc {
			t.Errorf("rule %s: README contract drifted from Rule.Doc:\nREADME:   %s\nregistry: %s",
				r.Name, rows[i].doc, r.Doc)
		}
		hasSection := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "#") && strings.Contains(line, "`"+r.Name+"`") {
				hasSection = true
				break
			}
		}
		if !hasSection {
			t.Errorf("rule %s: README has no heading mentioning `%s`", r.Name, r.Name)
		}
	}
}

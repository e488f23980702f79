// Package parse reads and writes the textual CRN format used by the command
// line tools and examples:
//
//	# comment
//	#input X1 X2
//	#output Y
//	#leader L
//	X1 + X2 -> Y
//	L -> 2Y + L0
//	2X -> 0          (annihilation: empty product side is written "0")
//
// Coefficients are optional (default 1) and may be separated from the
// species name by whitespace ("2 X" and "2X" are both accepted). The arrow
// may be "->" or "→".
package parse

import (
	"fmt"
	"strings"
	"unicode"

	"crncompose/internal/crn"
)

// Parse parses a full CRN document.
func Parse(input string) (*crn.CRN, error) {
	var (
		inputs    []crn.Species
		output    crn.Species
		leader    crn.Species
		reactions []crn.Reaction
	)
	for lineNo, raw := range strings.Split(input, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			directive, rest, _ := strings.Cut(strings.TrimPrefix(line, "#"), " ")
			rest = strings.TrimSpace(rest)
			switch strings.ToLower(directive) {
			case "input":
				for _, name := range strings.Fields(rest) {
					inputs = append(inputs, crn.Species(name))
				}
			case "output":
				if rest == "" {
					return nil, fmt.Errorf("parse: line %d: #output needs a species", lineNo+1)
				}
				output = crn.Species(rest)
			case "leader":
				if rest == "" {
					return nil, fmt.Errorf("parse: line %d: #leader needs a species", lineNo+1)
				}
				leader = crn.Species(rest)
			default:
				// Plain comment.
			}
			continue
		}
		r, err := parseReaction(line)
		if err != nil {
			return nil, fmt.Errorf("parse: line %d: %w", lineNo+1, err)
		}
		reactions = append(reactions, r)
	}
	if output == "" {
		return nil, fmt.Errorf("parse: missing #output directive")
	}
	return crn.New(inputs, output, leader, reactions)
}

// ParseReaction parses a single reaction such as "2X + L -> 3Y".
func ParseReaction(line string) (crn.Reaction, error) {
	r, err := parseReaction(line)
	if err != nil {
		return crn.Reaction{}, fmt.Errorf("parse: %w", err)
	}
	return r, nil
}

// parseReaction is the unprefixed inner parser: Parse wraps its errors
// with the line number, ParseReaction with the bare package prefix.
func parseReaction(line string) (crn.Reaction, error) {
	line = strings.ReplaceAll(line, "→", "->")
	lhs, rhs, ok := strings.Cut(line, "->")
	if !ok {
		return crn.Reaction{}, fmt.Errorf("missing arrow in %q", line)
	}
	reactants, err := parseSide(lhs)
	if err != nil {
		return crn.Reaction{}, fmt.Errorf("reactants of %q: %w", line, err)
	}
	products, err := parseSide(rhs)
	if err != nil {
		return crn.Reaction{}, fmt.Errorf("products of %q: %w", line, err)
	}
	if len(reactants) == 0 && len(products) == 0 {
		return crn.Reaction{}, fmt.Errorf("empty reaction %q", line)
	}
	return crn.Reaction{Reactants: reactants, Products: products}, nil
}

func parseSide(s string) ([]crn.Term, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" || s == "∅" {
		return nil, nil
	}
	terms := make([]crn.Term, 0, strings.Count(s, "+")+1)
	for more := true; more; {
		var part string
		part, s, more = strings.Cut(s, "+")
		t, err := parseTerm(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return terms, nil
}

func parseTerm(s string) (crn.Term, error) {
	if s == "" {
		return crn.Term{}, fmt.Errorf("empty term")
	}
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	coeff := int64(1)
	if i > 0 {
		var n int64
		for _, c := range s[:i] {
			n = n*10 + int64(c-'0')
			if n > 1<<40 {
				return crn.Term{}, fmt.Errorf("coefficient too large in %q", s)
			}
		}
		coeff = n
	}
	name := strings.TrimSpace(s[i:])
	if name == "" {
		return crn.Term{}, fmt.Errorf("missing species name in %q", s)
	}
	if !validSpeciesName(name) {
		return crn.Term{}, fmt.Errorf("invalid species name %q", name)
	}
	if coeff == 0 {
		return crn.Term{}, fmt.Errorf("zero coefficient in %q", s)
	}
	return crn.Term{Coeff: coeff, Sp: crn.Species(name)}, nil
}

func validSpeciesName(name string) bool {
	for i, r := range name {
		switch {
		case unicode.IsLetter(r) || r == '_':
		case (unicode.IsDigit(r) || r == '\'' || r == '.' || r == '[' || r == ']' || r == ',' || r == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// Format renders a CRN in the canonical format accepted by Parse.
// It is the inverse of Parse up to whitespace and comments.
func Format(c *crn.CRN) string { return c.String() }

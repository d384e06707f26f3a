package source

import "crypto/sha256"

// fingerprint is a program's content hash and the length of the printed
// text it hashes. It is computed on first use and kept on the Program,
// so it lives and dies with the AST, and programs that no cache keys are
// never printed.
type fingerprint struct {
	hash [sha256.Size]byte
	n    int
}

func (p *Program) fingerprint() *fingerprint {
	fp := p.fp.Load()
	if fp == nil {
		s := Print(p)
		fp = &fingerprint{sha256.Sum256([]byte(s)), len(s)}
		p.fp.Store(fp) // concurrent first uses store equal values
	}
	return fp
}

// Fingerprint returns a content hash of the program: the sha256 of its
// printed (round-trip) source text, computed once per AST. Two programs
// with the same fingerprint print identically, so every downstream
// stage (compilation, transformation, simulation) treats them the same.
// The program must not be mutated after fingerprinting.
func Fingerprint(p *Program) [sha256.Size]byte { return p.fingerprint().hash }

// PrintedLen returns the length of the program's printed source text,
// the text Fingerprint hashes.
func PrintedLen(p *Program) int { return p.fingerprint().n }

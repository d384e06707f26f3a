package prof

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// WritePprofFile writes the non-nil profiles to path as one pprof
// protobuf (see WritePprof), labeling each unlabeled profile with
// label. It fails without creating the file when every profile is nil.
func WritePprofFile(path, label string, ps ...*Profile) error {
	var keep []*Profile
	for _, p := range ps {
		if p == nil {
			continue
		}
		if p.Label == "" {
			p.Label = label
		}
		keep = append(keep, p)
	}
	if len(keep) == 0 {
		return fmt.Errorf("%s: no run recorded a cycle profile", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePprof(f, keep...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePprof encodes the profiles as a gzipped pprof profile.proto
// blob, the format `go tool pprof` reads. The encoder is hand-rolled
// (the repo takes no dependency on the pprof module): one Function per
// (label, machine, compiler, leg) profile, one Location per source
// line of that function, and one Sample per (line, cause) pair whose
// stack is [cause leaf, line] — so a flamegraph shows programs split
// by line, and each line split by where its cycles went. Samples carry
// kernel/machine/compiler/leg string labels for pprof -tagfocus.
//
// Message and field numbers follow
// github.com/google/pprof/proto/profile.proto.
func WritePprof(w io.Writer, ps ...*Profile) error {
	e := &pprofEncoder{strIdx: map[string]int64{"": 0}, strs: []string{""}}
	top := new(protoBuf)

	// sample_type + period_type: cycles/count.
	vt := new(protoBuf)
	vt.int64Field(1, e.str("cycles"))
	vt.int64Field(2, e.str("count"))
	top.bytesField(1, vt.b)  // sample_type
	top.bytesField(11, vt.b) // period_type
	// period (field 12) = 1
	top.tag(12, 0)
	top.varint(1)

	var locs, funcs, samples []*protoBuf
	nextLoc, nextFunc := uint64(1), uint64(1)

	// Shared leaf functions/locations, one per cause.
	causeLoc := [NumCauses]uint64{}
	for c := 0; c < NumCauses; c++ {
		fn := new(protoBuf)
		fn.uint64Field(1, nextFunc)
		fn.int64Field(2, e.str(causeNames[c]))
		fn.int64Field(4, e.str("<cause>"))
		funcs = append(funcs, fn)

		line := new(protoBuf)
		line.uint64Field(1, nextFunc)
		loc := new(protoBuf)
		loc.uint64Field(1, nextLoc)
		loc.bytesField(4, line.b)
		locs = append(locs, loc)
		causeLoc[c] = nextLoc
		nextLoc++
		nextFunc++
	}

	for _, p := range ps {
		name := p.Label
		if name == "" {
			name = "(unnamed)"
		}
		if p.Leg != "" {
			name += "/" + p.Leg
		}
		fnID := nextFunc
		nextFunc++
		fn := new(protoBuf)
		fn.uint64Field(1, fnID)
		fn.int64Field(2, e.str(name))
		fn.int64Field(4, e.str(name+".slms"))
		funcs = append(funcs, fn)

		// Sample labels shared by all of this profile's samples.
		labels := new(protoBuf)
		addLabel(labels, e, "kernel", p.Label)
		addLabel(labels, e, "machine", p.Machine)
		addLabel(labels, e, "compiler", p.Compiler)
		addLabel(labels, e, "leg", p.Leg)

		for _, ls := range p.Lines {
			if ls.Counts.Total() == 0 {
				continue
			}
			line := new(protoBuf)
			line.uint64Field(1, fnID)
			line.int64Field(2, int64(ls.Line))
			loc := new(protoBuf)
			loc.uint64Field(1, nextLoc)
			loc.bytesField(4, line.b)
			locs = append(locs, loc)
			lineLoc := nextLoc
			nextLoc++

			for c := 0; c < NumCauses; c++ {
				v := ls.Counts[c]
				if v == 0 {
					continue
				}
				sm := new(protoBuf)
				sm.packedUint64s(1, []uint64{causeLoc[c], lineLoc}) // leaf first
				sm.packedInt64s(2, []int64{v})
				sm.b = append(sm.b, labels.b...)
				samples = append(samples, sm)
			}
		}
	}

	for _, sm := range samples {
		top.bytesField(2, sm.b)
	}
	for _, loc := range locs {
		top.bytesField(4, loc.b)
	}
	for _, fn := range funcs {
		top.bytesField(5, fn.b)
	}
	for _, s := range e.strs {
		top.stringField(6, s)
	}

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(top.b); err != nil {
		return err
	}
	return gz.Close()
}

func addLabel(dst *protoBuf, e *pprofEncoder, key, val string) {
	if val == "" {
		return
	}
	lb := new(protoBuf)
	lb.int64Field(1, e.str(key))
	lb.int64Field(2, e.str(val))
	dst.bytesField(3, lb.b) // Sample.label
}

// pprofEncoder interns the profile's string table.
type pprofEncoder struct {
	strIdx map[string]int64
	strs   []string
}

func (e *pprofEncoder) str(s string) int64 {
	if i, ok := e.strIdx[s]; ok {
		return i
	}
	i := int64(len(e.strs))
	e.strIdx[s] = i
	e.strs = append(e.strs, s)
	return i
}

// protoBuf is a minimal protobuf wire-format writer.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// tag writes a field key. wire 0 = varint, 2 = length-delimited.
func (p *protoBuf) tag(field, wire int) {
	p.varint(uint64(field)<<3 | uint64(wire))
}

func (p *protoBuf) int64Field(field int, v int64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(uint64(v))
}

func (p *protoBuf) uint64Field(field int, v uint64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(v)
}

func (p *protoBuf) bytesField(field int, b []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) stringField(field int, s string) {
	p.tag(field, 2)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

func (p *protoBuf) packedInt64s(field int, vs []int64) {
	body := new(protoBuf)
	for _, v := range vs {
		body.varint(uint64(v))
	}
	p.bytesField(field, body.b)
}

func (p *protoBuf) packedUint64s(field int, vs []uint64) {
	body := new(protoBuf)
	for _, v := range vs {
		body.varint(v)
	}
	p.bytesField(field, body.b)
}

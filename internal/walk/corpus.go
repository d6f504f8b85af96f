package walk

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"flashwalker/internal/graph"
)

// WriteCorpus writes a walk corpus in the whitespace-separated text format
// skip-gram trainers (word2vec and friends) consume: one walk per line,
// vertex IDs as tokens.
func WriteCorpus(w io.Writer, corpus [][]graph.VertexID) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, path := range corpus {
		for i, v := range path {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(v), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxCorpusLine bounds a single corpus line (one walk). A walk line can
// exceed bufio.Scanner's 64 KiB default — and the 1 MiB cap this reader
// used to impose — easily: 50k hops of 20-digit vertex IDs is ~1 MiB, so
// long walks on large graphs would fail with bufio.ErrTooLong. The scanner
// grows its buffer on demand, so the generous cap costs nothing on short
// lines.
const maxCorpusLine = 1 << 30

// ReadCorpus parses the format WriteCorpus emits. Empty lines are skipped.
// A token past the largest vertex ID, graph.MaxVertices-1, is an error.
func ReadCorpus(r io.Reader) ([][]graph.VertexID, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxCorpusLine)
	var corpus [][]graph.VertexID
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		path := make([]graph.VertexID, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("walk: corpus line %d token %d: %w", line, i, err)
			}
			if v >= graph.MaxVertices {
				return nil, fmt.Errorf("walk: corpus line %d token %d: vertex %d past %d", line, i, v, graph.MaxVertices-1)
			}
			path[i] = graph.VertexID(v)
		}
		corpus = append(corpus, path)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("walk: reading corpus: %w", err)
	}
	return corpus, nil
}

// CorpusStats summarizes a corpus: walk count, token count, and the mean
// walk length in hops.
func CorpusStats(corpus [][]graph.VertexID) (walks, tokens int, meanHops float64) {
	walks = len(corpus)
	for _, p := range corpus {
		tokens += len(p)
	}
	if walks > 0 {
		meanHops = float64(tokens-walks) / float64(walks)
	}
	return
}

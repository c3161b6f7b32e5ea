package sql

import (
	"testing"

	"repro/internal/event"
	"repro/internal/storage"
)

// fuzzExecutor is a small scratch database: two joinable tables and one
// event-typed table over declared basic events.
func fuzzExecutor(t *testing.T) *Executor {
	t.Helper()
	space := event.NewSpace()
	for _, b := range []struct {
		name string
		p    float64
	}{{"e1", 0.8}, {"e2", 0.5}} {
		if err := space.Declare(b.name, b.p); err != nil {
			t.Fatal(err)
		}
	}
	ex := NewExecutor(storage.NewCatalog(), &Runtime{Space: space})
	for _, stmt := range []string{
		"CREATE TABLE programs (id TEXT, name TEXT, year INT, rating FLOAT)",
		"INSERT INTO programs VALUES ('p1', 'Oprah', 2006, 6.5), ('p2', 'BBC news', 2007, 8.0), ('p3', NULL, 1970, 9.5)",
		"CREATE TABLE genres (pid TEXT, genre TEXT)",
		"INSERT INTO genres VALUES ('p1', 'human-interest'), ('p3', 'comedy')",
		"CREATE TABLE c (id TEXT, ev EVENT)",
		"INSERT INTO c VALUES ('p1', EV_BASIC('e1')), ('p2', EV_AND(EV_BASIC('e1'), EV_BASIC('e2')))",
	} {
		if _, err := ex.Exec(stmt); err != nil {
			t.Fatalf("seeding %q: %v", stmt, err)
		}
	}
	return ex
}

// FuzzSQLParse feeds arbitrary text to Parse, which /v1/query and
// /v1/exec reach with raw client SQL: it must never panic. Every
// statement that parses is also executed against a fresh scratch
// database — errors are fine, panics are not.
func FuzzSQLParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT name, rating * 10 AS pct FROM programs WHERE year = 2007 ORDER BY name DESC LIMIT 2",
		"SELECT p.name, g.genre FROM programs p JOIN genres g ON p.id = g.pid WHERE g.genre <> 'comedy'",
		"SELECT x.id FROM programs x LEFT JOIN genres y ON x.id = y.pid WHERE y.pid IS NULL",
		"SELECT id FROM programs WHERE id IN ('p1', 'p3') AND name NOT LIKE '%news%'",
		"SELECT genre, COUNT(*) AS n, MIN(pid) FROM genres GROUP BY genre HAVING COUNT(*) > 0",
		"SELECT DISTINCT id FROM programs UNION ALL SELECT pid FROM genres",
		"SELECT id, PROB(ev) FROM c WHERE PROB(EV_OR(ev, EV_NOT(EV_BASIC('e2')))) > 0.1",
		"INSERT INTO programs (id, name, year) VALUES ('p4', 'it''s ''quoted''', 2024)",
		"UPDATE programs SET rating = rating + 1, name = 'x' WHERE year < 2000",
		"DELETE FROM genres WHERE pid IN ('p1', 'p9') OR genre = 'comedy'",
		"CREATE VIEW recent AS SELECT id FROM programs WHERE year >= 2006",
		"CREATE TABLE überschrift (größe INT, 名前 TEXT, ıd TEXT)",
		"SELECT größe FROM überschrift WHERE 名前 = 'テレビ'",
		"SELECT -1.5e3, 'ünïcode ''quote''', NULL IS NULL, NOT (1 = 2) FROM programs",
		"DROP VIEW recent",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		stmt, err := Parse(in)
		if err != nil {
			return
		}
		_, _ = fuzzExecutor(t).ExecStmt(stmt)
	})
}

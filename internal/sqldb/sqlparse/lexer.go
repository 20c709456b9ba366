// Package sqlparse implements the SQL dialect used by the repro database
// engine: the subset of MySQL 3.23 the paper's benchmarks issue, and no
// more.
//
//   - SELECT: a projection list, * or COUNT(*) items; FROM one table and
//     INNER JOIN ... ON; WHERE; ORDER BY; LIMIT n.
//   - INSERT (multi-row), UPDATE, DELETE.
//   - CREATE TABLE, CREATE [UNIQUE] INDEX, DROP TABLE, and ALTER TABLE ...
//     AUTO_INCREMENT [OFFSET o] [STRIDE s] [NEXT n].
//   - BEGIN / START TRANSACTION, PREPARE TRANSACTION, COMMIT, ROLLBACK: the
//     transaction is the dialect's one multi-statement critical section.
//   - SHOW TABLES and SHOW TABLE STATUS, which replica sync reads, and SHOW
//     WAL STATUS, the one view of a backend's write-ahead log.
//
// GROUP BY, SELECT DISTINCT, LIMIT ... OFFSET, LIMIT offset, count, SUM,
// MIN, MAX, AVG and COUNT(expr) are not in it: neither application, the EJB
// container, the cluster nor population issues them, and Parse rejects each
// with an error naming it. Nor is any SHOW WAL form but STATUS.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // operators and punctuation
	tokParam  // ? placeholder
)

type token struct {
	kind tokKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int
}

// keywords recognized by the dialect. Identifiers matching these (case-
// insensitively) lex as tokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true, "INDEX": true,
	"PRIMARY": true, "KEY": true, "UNIQUE": true, "ON": true, "JOIN": true,
	"INNER": true, "LEFT": true, "ORDER": true, "BY": true, "ASC": true,
	"DESC": true, "LIMIT": true, "OFFSET": true, "GROUP": true, "AS": true,
	"INT": true, "INTEGER": true, "BIGINT": true, "FLOAT": true, "DOUBLE": true,
	"VARCHAR": true, "TEXT": true, "CHAR": true, "NULL": true, "IS": true,
	"IN": true, "LIKE": true, "BETWEEN": true, "TABLES": true,
	"COUNT": true, "SUM": true,
	"MIN": true, "MAX": true, "AVG": true, "DISTINCT": true, "DROP": true,
	"IF": true, "EXISTS": true, "DEFAULT": true, "AUTO_INCREMENT": true,
	"DATETIME": true, "TRUE": true, "FALSE": true, "SHOW": true, "ALTER": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "START": true,
	"TRANSACTION": true, "WORK": true,
}

// lexer turns SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns an error with byte position on malformed
// input (unterminated string, unexpected rune).
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '?':
			l.emit(token{kind: tokParam, text: "?", pos: l.pos})
			l.pos++
		case c == '\'' || c == '"':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// -- line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\\' && l.pos+1 < len(l.src):
			// backslash escapes, MySQL style
			next := l.src[l.pos+1]
			switch next {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(next)
			}
			l.pos += 2
		case c == quote:
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				// doubled quote escapes itself
				b.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(token{kind: tokString, text: b.String(), pos: start})
			return nil
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("sqlparse: unterminated string at byte %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if !isDigit(c) {
			break
		}
		l.pos++
	}
	l.emit(token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if keywords[strings.ToUpper(text)] {
		l.emit(token{kind: tokKeyword, text: strings.ToUpper(text), pos: start})
		return
	}
	l.emit(token{kind: tokIdent, text: text, pos: start})
}

func (l *lexer) lexSymbol() error {
	start := l.pos
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		l.emit(token{kind: tokSymbol, text: two, pos: start})
		return nil
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';', '%':
		l.pos++
		l.emit(token{kind: tokSymbol, text: string(c), pos: start})
		return nil
	default:
		return fmt.Errorf("sqlparse: unexpected character %q at byte %d", c, start)
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return c == '_' || isDigit(c) || unicode.IsLetter(rune(c)) }

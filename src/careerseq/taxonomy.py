"""Occupation taxonomy: code <-> title bijection over work occupations plus
three special labor-force statuses (education, unemployment, out of labor force).

The taxonomy is the prediction space shared by every occupation model in this
package. Codes are opaque integer ids; all array-valued model code works in
dense indices obtained through :meth:`OccupationTaxonomy.index_of`.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from enum import Enum

FORMAT_HEADER = "#careerseq-v1"


class TaxonomyError(ValueError):
    pass


class OccupationKind(str, Enum):
    WORK = "work"
    EDUCATION = "education"
    UNEMPLOYED = "unemployed"
    OUT_OF_LABOR_FORCE = "out_of_labor_force"


SPECIAL_KINDS = (
    OccupationKind.EDUCATION,
    OccupationKind.UNEMPLOYED,
    OccupationKind.OUT_OF_LABOR_FORCE,
)

# Canonical titles for the three special statuses.
SPECIAL_TITLES = {
    OccupationKind.EDUCATION: "In education",
    OccupationKind.UNEMPLOYED: "Unemployed",
    OccupationKind.OUT_OF_LABOR_FORCE: "Not in labor force",
}


@dataclass(frozen=True)
class OccupationEntry:
    code: int
    title: str
    kind: OccupationKind


def _norm_title(title: str) -> str:
    return " ".join(title.casefold().split())


class OccupationTaxonomy:
    """Immutable code <-> title mapping.

    Invariants enforced at construction:
      * codes and titles are unique (the mapping is bijective),
      * titles stay unique after case-folding and whitespace normalization,
      * exactly one entry of each special kind is present.
    """

    def __init__(self, entries: list[OccupationEntry]):
        if not entries:
            raise TaxonomyError("taxonomy must not be empty")
        codes = [e.code for e in entries]
        if len(set(codes)) != len(codes):
            raise TaxonomyError("duplicate occupation codes")
        normed = [_norm_title(e.title) for e in entries]
        if len(set(normed)) != len(normed):
            raise TaxonomyError("duplicate titles after normalization")
        if any(not e.title.strip() for e in entries):
            raise TaxonomyError("empty title")
        for kind in SPECIAL_KINDS:
            n = sum(1 for e in entries if e.kind == kind)
            if n != 1:
                raise TaxonomyError(f"expected exactly one {kind.value} entry, found {n}")
        self.entries: tuple[OccupationEntry, ...] = tuple(entries)
        self._by_code = {e.code: e for e in self.entries}
        self._by_title = {e.title: e for e in self.entries}
        self._index = {e.code: i for i, e in enumerate(self.entries)}

    @property
    def size(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, code: int) -> bool:
        return code in self._by_code

    def entry(self, code: int) -> OccupationEntry:
        try:
            return self._by_code[code]
        except KeyError:
            raise TaxonomyError(f"unknown occupation code {code}") from None

    def title(self, code: int) -> str:
        return self.entry(code).title

    def code_of_title(self, title: str) -> int:
        try:
            return self._by_title[title].code
        except KeyError:
            raise TaxonomyError(f"unknown occupation title {title!r}") from None

    def has_title(self, title: str) -> bool:
        return title in self._by_title

    def index_of(self, code: int) -> int:
        """Dense index of ``code`` in entry order (for array-valued models)."""
        try:
            return self._index[code]
        except KeyError:
            raise TaxonomyError(f"unknown occupation code {code}") from None

    def code_at(self, index: int) -> int:
        return self.entries[index].code

    def codes(self) -> list[int]:
        return [e.code for e in self.entries]

    def titles(self) -> list[str]:
        return [e.title for e in self.entries]

    # ------------------------------------------------------------------ IO

    def dump_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(FORMAT_HEADER + "\n")
            writer = csv.writer(fh)
            writer.writerow(["code", "title", "kind"])
            for e in self.entries:
                writer.writerow([e.code, e.title, e.kind.value])

    @classmethod
    def load_csv(cls, path) -> "OccupationTaxonomy":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = fh.readline().rstrip("\n")
            if first != FORMAT_HEADER:
                raise TaxonomyError(f"missing {FORMAT_HEADER} header in {path}")
            reader = csv.DictReader(fh)
            entries = []
            for row in reader:
                entries.append(
                    OccupationEntry(
                        code=int(row["code"]),
                        title=row["title"],
                        kind=OccupationKind(row["kind"]),
                    )
                )
        return cls(entries)


# --------------------------------------------------------------------------
# Default taxonomy
# --------------------------------------------------------------------------

# Work-occupation titles in the style of the harmonized census taxonomy.
# The list is kept prefix-free (no title is a string prefix of another) so
# that chained token-level title scores correspond to disjoint continuation
# events; ``build_default_taxonomy`` asserts this. Single-word titles lead
# the list so that small toy taxonomies keep title token counts low.
WORK_TITLES = [
    "Cooks",
    "Bakers",
    "Tellers",
    "Designers",
    "Cashiers",
    "Phlebotomists",
    "Telemarketers",
    "Machinists",
    "Electricians",
    "Carpenters",
    "Lawyers",
    "Librarians",
    "Dentists",
    "Pharmacists",
    "Photographers",
    "Typists",
    "Tailors",
    "Upholsterers",
    "Veterinarians",
    "Glaziers",
    "Plasterers",
    "Boilermakers",
    "Millwrights",
    "Barbers",
    "Bartenders",
    "Dishwashers",
    "Announcers",
    "Actuaries",
    "Economists",
    "Architects",
    "Clergy",
    "Chiropractors",
    "Dispatchers",
    "Drafters",
    "Paperhangers",
    "Podiatrists",
    "Proofreaders",
    "Psychologists",
    "Sociologists",
    "Optometrists",
    "Food servers, nonrestaurant",
    "Cleaners of vehicles and equipment",
    "Bus drivers",
    "Painting workers",
    "Court, municipal, and license clerks",
    "Septic tank servicers and sewer pipe cleaners",
    "Industrial engineers, including health and safety",
    "Mechanical engineers",
    "Sales Representatives Services All Other",
    "Loan interviewers and clerks",
    "Education administrators",
    "Athletes, coaches, umpires, and related workers",
    "Child care workers",
    "Postmasters and mail superintendents",
    "Nurse practitioners",
    "Coin, vending, and amusement machine servicers and repairers",
    "Secretaries and administrative assistants",
    "Maids and housekeeping cleaners",
    "Elementary and middle school teachers",
    "First-line supervisors/managers of retail sales workers",
    "Grinding, Lapping, Polishing, and Buffing Machine Tool Setters, Operators, and Tenders, Metal and Plastic",
    "Cutting, punching, and press machine setters, operators, and tenders, metal and plastic",
    "Accountants and auditors",
    "Actors, directors, and producers",
    "Administrative support occupations, n.e.c.",
    "Advertising and promotions managers",
    "Aerospace engineers",
    "Agricultural and food scientists",
    "Air traffic controllers",
    "Aircraft mechanics and service technicians",
    "Aircraft pilots and flight engineers",
    "Animal caretakers except farm",
    "Archivists and curators",
    "Assemblers of electrical equipment",
    "Automobile body repairers",
    "Automotive service technicians and mechanics",
    "Baggage porters and bellhops",
    "Bailiffs, correctional officers, and jailers",
    "Billing and posting clerks",
    "Biological scientists",
    "Bookbinders",
    "Bookkeeping, accounting, and auditing clerks",
    "Brickmasons and blockmasons",
    "Broadcast equipment operators",
    "Brokers and sales agents, securities and financial services",
    "Butchers and other meat, poultry, and fish processing workers",
    "Cabinetmakers and bench carpenters",
    "Cargo and freight agents",
    "Carpet, floor, and tile installers and finishers",
    "Cement masons and concrete finishers",
    "Chefs and head cooks",
    "Chemical engineers",
    "Chemical technicians",
    "Chemists and materials scientists",
    "Chief executives and public administrators",
    "Civil engineers",
    "Claims adjusters, appraisers, examiners, and investigators",
    "Clinical laboratory technologists and technicians",
    "Computer programmers",
    "Computer support specialists",
    "Computer systems analysts and computer scientists",
    "Construction laborers",
    "Cost estimators",
    "Counselors",
    "Couriers and messengers",
    "Crane and tower operators",
    "Crossing guards",
    "Customer service representatives",
    "Dancers and choreographers",
    "Data entry keyers",
    "Dental assistants",
    "Dental hygienists",
    "Dietitians and nutritionists",
    "Dressmakers and seamstresses",
    "Drywall installers",
    "Editors and reporters",
    "Electrical and electronics engineers",
    "Elevator installers and repairers",
    "Eligibility interviewers, government programs",
    "Engineering technicians, n.e.c.",
    "Excavating and loading machine operators",
    "Explosives workers",
    "Extruding and drawing machine operators",
    "Farm managers",
    "Farmers, owners and tenants",
    "File clerks",
    "Financial managers",
    "Fire fighting occupations",
    "Fishers, hunters, and trappers",
    "Flight attendants",
    "Food preparation workers",
    "Forestry and conservation workers",
    "Fork lift and tow motor operatives",
    "Funeral directors",
    "Furnace, kiln, and oven operators, except food",
    "Garbage and recyclable material collectors",
    "Gardeners and groundskeepers",
    "General office clerks",
    "Geologists and geodesists",
    "Graders and sorters of agricultural products",
    "Hairdressers and cosmetologists",
    "Health record technologists and technicians",
    "Heating, air conditioning, and refrigeration mechanics",
    "Heavy equipment and farm equipment mechanics",
    "Helpers, construction trades",
    "Home health aides",
    "Hotel clerks",
    "Human resources managers",
    "Industrial machinery repairers",
    "Information clerks, n.e.c.",
    "Inspectors of agricultural products",
    "Insurance sales agents",
    "Insurance underwriters",
    "Interviewers, enumerators, and surveyors",
    "Janitors and building cleaners",
    "Jewelers and precious stone and metal workers",
    "Judges, magistrates, and other judicial workers",
    "Kindergarten and earlier school teachers",
    "Laborers outside construction",
    "Lathe, milling, and turning machine operatives",
    "Laundry workers",
    "Legal assistants and paralegals",
    "Library assistants",
    "Licensed practical nurses",
    "Locksmiths and safe repairers",
    "Locomotive engineers and operators",
    "Lodging managers",
    "Machine feeders and offbearers",
    "Mail carriers, public service",
    "Management analysts",
    "Managers and specialists in marketing, advertising, and public relations",
    "Managers of food-serving and lodging establishments",
    "Managers of medicine and health occupations",
    "Managers of properties and real estate",
    "Managers, n.e.c.",
    "Materials engineers",
    "Mathematicians and statisticians",
    "Meter readers",
    "Mining machine operators",
    "Miscellaneous food preparation and service workers",
    "Models, demonstrators, and product promoters",
    "Molders and casting machine operators",
    "Motor vehicle operators, n.e.c.",
    "Musicians and singers",
    "New accounts clerks",
    "Nuclear engineers",
    "Nursing aides, orderlies, and attendants",
    "Occupational therapists",
    "Office machine operators, n.e.c.",
    "Office supervisors",
    "Operations and systems researchers and analysts",
    "Opticians, dispensing",
    "Order clerks",
    "Packers and packagers by hand",
    "Parking lot attendants",
    "Parts salespersons",
    "Payroll and timekeeping clerks",
    "Personal care and service workers, n.e.c.",
    "Pest control workers",
    "Petroleum engineers",
    "Photographic process workers",
    "Physical scientists, n.e.c.",
    "Physical therapists",
    "Physician assistants",
    "Physicians and surgeons",
    "Physicists and astronomers",
    "Plumbers, pipefitters, and steamfitters",
    "Police officers and detectives",
    "Postal clerks, except mail carriers",
    "Power plant operators",
    "Precision grinders and fitters",
    "Pressing machine operators, clothing",
    "Printing machine operators, n.e.c.",
    "Private household cleaners and servants",
    "Probation officers and correctional treatment specialists",
    "Public relations specialists",
    "Punching and stamping press operatives",
    "Purchasing agents and buyers, n.e.c.",
    "Radiologic technologists and technicians",
    "Railroad brake, coupler, and switch operators",
    "Railroad conductors and yardmasters",
    "Real estate sales occupations",
    "Receptionists and information clerks",
    "Recreation and fitness workers",
    "Registered nurses",
    "Repairers of electrical equipment, n.e.c.",
    "Respiratory therapists",
    "Roofers and slaters",
    "Sales counter clerks",
    "Sales demonstrators, promoters, and models",
    "Sales engineers",
    "Sales workers, retail and personal services",
    "Sawing machine operators and sawyers",
    "Science technicians, n.e.c.",
    "Sheet metal workers",
    "Sheriffs, bailiffs, and other law enforcement officers",
    "Ship crews and marine engineers",
    "Shipping and receiving clerks",
    "Shoe repairers",
    "Slicing and cutting machine operators",
    "Social scientists, n.e.c.",
    "Social workers",
    "Special education teachers",
    "Speech-language pathologists",
    "Stationary engineers and boiler operators",
    "Statistical clerks",
    "Stock and inventory clerks",
    "Stock handlers and baggers",
    "Structural iron and steel workers",
    "Supervisors of cleaning and building service workers",
    "Supervisors of construction work",
    "Supervisors of food preparation and service occupations",
    "Supervisors of guards",
    "Supervisors of mechanics and repairers",
    "Supervisors of motor vehicle transportation",
    "Supervisors of personal service occupations, n.e.c.",
    "Supervisors of production workers",
    "Surveyors, cartographers, and mapping scientists",
    "Switchboard operators, including answering service",
    "Tax preparers",
    "Taxi drivers and chauffeurs",
    "Teacher assistants",
    "Teachers, postsecondary",
    "Teachers, secondary school",
    "Technical writers",
    "Telecom installers and repairers, line",
    "Telephone operators",
    "Textile sewing machine operators",
    "Therapists, n.e.c.",
    "Tool and die makers",
    "Travel agents",
    "Truck drivers, heavy",
    "Truck drivers, light",
    "Urban and regional planners",
    "Waiters and waitresses",
    "Water and sewage treatment plant operators",
    "Weighers, measurers, and checkers",
    "Welders and metal cutters",
    "Well drillers and bore machine operators",
    "Wholesale sales representatives",
    "Woodworking machine operators",
    "Writers and authors",
]

# Word banks used to extend the built-in list when a taxonomy larger than the
# curated one is requested; combinations are still realistic title shapes.
_FILLER_DOMAINS = [
    "Metal", "Plastic", "Textile", "Paper", "Glass", "Leather", "Rubber",
    "Ceramic", "Chemical plant", "Food processing", "Beverage", "Tobacco",
    "Lumber", "Furniture", "Footwear", "Apparel", "Printing", "Packaging",
    "Electronics", "Instrument", "Optical goods", "Photographic equipment",
    "Petroleum refinery", "Mining", "Quarry", "Foundry", "Shipyard",
    "Rail equipment", "Marine cargo", "Warehouse", "Cold storage", "Dairy",
    "Grain", "Poultry", "Seafood", "Nursery", "Orchard", "Vineyard",
]
_FILLER_ROLES = [
    "machine setters", "machine tenders", "process inspectors",
    "finishing operatives", "production helpers", "maintenance workers",
    "equipment installers", "plant laborers", "bench workers",
    "treating equipment operators", "fabricating machine operators",
]


def _iter_filler_titles():
    for domain, role in itertools.product(_FILLER_DOMAINS, _FILLER_ROLES):
        yield f"{domain} {role}"


def _assert_prefix_free(titles: list[str]) -> None:
    ordered = sorted(titles)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            raise TaxonomyError(f"title {a!r} is a prefix of {b!r}")


def build_default_taxonomy(size: int = 334) -> OccupationTaxonomy:
    """Build the shipped taxonomy: ``size - 3`` work occupations followed by
    the three special statuses. Work codes are 1-based; specials take the last
    three codes. All titles are guaranteed prefix-free.
    """
    if size < 4:
        raise TaxonomyError("taxonomy size must be at least 4")
    n_work = size - 3
    titles = list(WORK_TITLES)
    if n_work > len(titles):
        for t in _iter_filler_titles():
            titles.append(t)
            if len(titles) >= n_work:
                break
        if len(titles) < n_work:
            raise TaxonomyError(f"cannot build taxonomy of size {size}")
    titles = titles[:n_work]
    _assert_prefix_free(titles + list(SPECIAL_TITLES.values()))
    entries = [
        OccupationEntry(code=i + 1, title=t, kind=OccupationKind.WORK)
        for i, t in enumerate(titles)
    ]
    entries.append(OccupationEntry(n_work + 1, SPECIAL_TITLES[OccupationKind.EDUCATION], OccupationKind.EDUCATION))
    entries.append(OccupationEntry(n_work + 2, SPECIAL_TITLES[OccupationKind.UNEMPLOYED], OccupationKind.UNEMPLOYED))
    entries.append(OccupationEntry(n_work + 3, SPECIAL_TITLES[OccupationKind.OUT_OF_LABOR_FORCE], OccupationKind.OUT_OF_LABOR_FORCE))
    return OccupationTaxonomy(entries)

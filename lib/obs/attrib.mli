(** Constraint provenance: per-region cost attribution for compiled
    circuits.

    A {!t} is a tree of named regions mirroring the nesting of
    [Zkvc_r1cs.Builder.in_region] scopes during synthesis. Each node
    carries the {e self} cost — constraints emitted, wires allocated and
    per-matrix nonzeros contributed while that region (and no deeper
    region) was active — plus the measured synthesis ("witness") time and
    an apportioned share of a measured prove time. Totals are
    reconstructed by folding, so child costs always sum to the parent by
    construction: the tree cannot disagree with itself.

    Exporters: an aligned terminal table ({!to_table}), collapsed-stack
    text ({!to_folded}, flamegraph.pl / speedscope compatible), and a
    JSON codec ({!to_json}/{!of_json}) that round-trips exactly. This module knows nothing about R1CS — it
    only aggregates counts the builder hands it, which keeps the obs
    library dependency-free. *)

(** Structural cost owned directly by one region (excluding children). *)
type counts =
  { constraints : int;
    variables : int;  (** wires allocated, excluding the constant-one wire *)
    nnz_a : int;  (** nonzero terms contributed to the A matrix *)
    nnz_b : int;
    nnz_c : int }

val zero_counts : counts
val add_counts : counts -> counts -> counts

type t =
  { name : string;
    self : counts;
    witness_s : float;  (** synthesis wall time spent directly in this region *)
    prove_share_s : float;  (** apportioned slice of a measured prove time *)
    children : t list  (** creation order *) }

val make : ?witness_s:float -> ?prove_share_s:float -> name:string -> self:counts -> t list -> t

(** Inclusive cost: self plus all descendants. *)
val total : t -> counts

val total_witness_s : t -> float
val total_prove_s : t -> float

(** Zero all timing fields — the structural projection, equal across
    runs regardless of clock or [--jobs]. *)
val strip_timing : t -> t

(** Distribute [prove_s] over the tree proportionally to each node's
    share of total nonzeros (the structural proxy for prover work). *)
val with_prove_share : prove_s:float -> t -> t

(** Percentage (0–100) of constraints attributed to no region: the
    root's self count over the tree total. *)
val unattributed_pct : t -> float

(** [(path, self-constraints)] per node, preorder; path segments are
    sanitized (no [';'] or whitespace). Basis of {!to_folded}. *)
val folded_entries : t -> (string list * int) list

(** Collapsed-stack text: one [root;child;leaf N] line per node, where
    [N] is the node's {e self} constraint count. Accepted by
    flamegraph.pl and speedscope. *)
val to_folded : t -> string

(** Parse collapsed-stack text back to [(path, weight)] entries.
    [parse_folded (to_folded t) = Ok (folded_entries t)]. *)
val parse_folded : string -> ((string list * int) list, string) result

(** Aligned terminal table: one row per region (indented by depth) with
    inclusive constraints, share, variables, per-matrix nnz, and witness
    / prove milliseconds. *)
val to_table : t -> string

(** Exact round-trip: [of_json (to_json t) = Ok t]. *)
val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result

(** Human-readable notes for structural differences between two trees,
    matched by path (region names slash-joined from the root's): changed
    counts field-by-field, plus added/removed regions. Empty when
    structurally identical. Timing fields are ignored. *)
val drift_notes : old_:t -> new_:t -> string list

(** Per-path self-count differences [new_ − old_], sorted by path, for
    every path whose counts differ; a region present in one tree only
    counts as zero in the other. Timing fields are ignored. Basis of
    [zkvc_cli profile --compare]. *)
val deltas : old_:t -> new_:t -> (string * counts) list

(** The [n] (default 3) hottest regions by self constraint count, as
    [(path, constraints)] with the synthetic root segment dropped. *)
val top_regions : ?n:int -> t -> (string * int) list

(** Differential properties: optimized fast paths vs. naive oracles on
    generated inputs, with replayable seeds and greedy shrinking.

    Nine property families (see docs/TESTING.md):

    {ul
    {- [query-vs-oracle]: indexed {!Xpdl_query.Query}/{!Xpdl_toolchain.Ir}
       results ≡ the naive {!Oracle} tree walks on composed generated
       models (counts, aggregations, path/id lookups, subtree spans,
       selectors);}
    {- [store-incremental]: after each step of a random edit sequence
       applied through an {!Xpdl_store.Store}, a tracked
       {!Xpdl_query.Query} handle answers bit-identically to one rebuilt
       from the current model (whole-model and within-subtree derived
       values), and the edit journal stays replayable;}
    {- [serve-mvcc]: random interleavings of query/edit/pin/subscribe
       requests from several simulated client sessions against an
       in-process {!Xpdl_serve.Hub} answer exactly as a sequential
       oracle replay — head queries match a fresh handle on the current
       model, pinned queries match (bit-identically) a fresh handle on
       the model captured at pin time even across journal compaction,
       pinned revisions stay journal-replayable, subscribers see exactly
       the edits journaled while subscribed, and closing every session
       reclaims all pins and snapshot handles;}
    {- [print-parse-roundtrip]: [Parse.string ∘ Print.to_string] is the
       identity up to insignificant whitespace, and printing is a
       fixpoint;}
    {- [parse-recovery]: recovering parse of corrupted documents never
       raises and reports only positioned [XPDLnnn] diagnostics;}
    {- [psm-optimal]: {!Xpdl_energy.Psm.transition_path} never raises on
       generated machines and its cost equals the exhaustive-search
       minimum; unreachable pairs yield [None] on both sides;}
    {- [elaborate-deterministic]: composing the same document twice
       yields byte-identical runtime models;}
    {- [charref-oracle]: the parser accepts a character reference iff the
       spec-faithful {!Oracle.decode_charref} does, with equal
       decodings;}
    {- [bootstrap-fault-tolerant]: the resilient bootstrap
       ({!Xpdl_microbench.Resilient}) on fault-injected generated bench
       models always terminates within its simulated budget envelope,
       resolves or quarantines every ["?"] placeholder with a [quality]
       label and matching XPDL5xx diagnostics, and produces byte-identical
       health reports when replayed from the same seeds.}}

    Every failure carries the [(seed, case)] pair that regenerates it and
    a shrunk minimal reproduction. *)

type failure = {
  f_property : string;
  f_seed : int;
  f_case : int;  (** 0-based index within the property's case stream *)
  f_message : string;  (** what diverged *)
  f_repro : string;  (** minimized failing input, printable *)
}

type report = {
  r_seed : int;
  r_count : int;  (** requested cases per property *)
  r_properties : int;  (** properties actually run (after filtering) *)
  r_cases : int;  (** total cases actually executed *)
  r_failures : failure list;
}

(** The seed used when none is given — fixed so local runs and CI
    default to the same corpus. *)
val default_seed : int

(** Names accepted by [run]'s [properties] filter, in execution order. *)
val property_names : string list

(** Run [count] cases (default 500) of each selected property (default
    all) from [seed] (default {!default_seed}).  Failures stop a
    property's stream early — one minimized counterexample is worth more
    than a flood.  [on_case] is called before each case (progress
    reporting). *)
val run :
  ?seed:int ->
  ?count:int ->
  ?properties:string list ->
  ?on_case:(string -> int -> unit) ->
  unit ->
  report

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit

(** Diagnostics produced across the toolchain: parse, elaborate, validate,
    instantiate and compose stages.

    Every message carries the source position of the offending XML node so
    tools can report [file:line:col]-style errors over [.xpdl] files, and a
    stable [XPDLnnn] code giving it a machine-readable identity:

    - [XPDL0xx] — parse (syntax) errors, produced by {!Xpdl_xml.Parse};
    - [XPDL1xx] — elaboration (typing/schema) diagnostics;
    - [XPDL2xx] — validation and constraint diagnostics;
    - [XPDL3xx] — composition/repository diagnostics;
    - [XPDL4xx] — incremental model-store diagnostics;
    - [XPDL5xx] — deployment-bootstrap robustness diagnostics (fault
      injection, retry/quarantine, graceful degradation);
    - [XPDL6xx] — runtime-model codec diagnostics (corrupt or truncated
      [.xrt] arena files);
    - [XPDL7xx] — model-query server protocol diagnostics;
    - [XPDL8xx] — design-space exploration sweep diagnostics;
    - [XPDL9xx] — durability diagnostics (write-ahead journal,
      checkpointing, crash recovery, idempotent replay).

    [XPDL000] is the uncategorized default for legacy call sites. *)

type severity = Error | Warning | Info

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

type t = {
  severity : severity;
  code : string;  (** stable [XPDLnnn] identity, ["XPDL000"] if uncategorized *)
  pos : Xpdl_xml.Dom.position;
  message : string;
}

let uncategorized = "XPDL000"

(* The code registry: every code emitted anywhere in the toolchain, its
   default severity, and a one-line meaning.  docs/DIAGNOSTICS.md mirrors
   this table; the test suite checks the two stay in sync. *)
let registry : (string * severity * string) list =
  [
    (uncategorized, Error, "uncategorized diagnostic (legacy call sites)");
    (* XPDL0xx — parse *)
    ("XPDL001", Error, "syntax error (unexpected character or token)");
    ("XPDL002", Error, "unterminated construct (element, comment, CDATA, PI, DOCTYPE, value)");
    ("XPDL003", Error, "mismatched closing tag");
    ("XPDL004", Error, "invalid entity or character reference");
    ("XPDL005", Error, "duplicate attribute");
    ("XPDL006", Error, "malformed document structure (no root, multiple roots, stray text)");
    ("XPDL007", Error, "invalid attribute value syntax");
    ("XPDL008", Error, "cannot read input file");
    ("XPDL009", Error, "too many parse errors, recovery abandoned");
    (* XPDL1xx — elaborate *)
    ("XPDL101", Error, "attribute value has the wrong type (int/float/bool expected)");
    ("XPDL102", Error, "attribute value not in the allowed enumeration");
    ("XPDL103", Error, "malformed expression attribute");
    ("XPDL104", Error, "unit error on metric attribute (unknown unit or wrong dimension)");
    ("XPDL105", Warning, "metric attribute lacks its unit companion");
    ("XPDL110", Warning, "unknown attribute (kept as extension)");
    ("XPDL111", Warning, "unknown element (kept as extension)");
    ("XPDL112", Error, "element not allowed inside this parent");
    (* XPDL2xx — validate / constraints *)
    ("XPDL201", Error, "ill-formed identifier");
    ("XPDL202", Error, "missing required attribute");
    ("XPDL203", Error, "duplicate id within a scope");
    ("XPDL204", Error, "interconnect endpoint does not name a component");
    ("XPDL205", Error, "malformed power state machine");
    ("XPDL206", Warning, "unreachable power state");
    ("XPDL207", Warning, "unknown microbenchmark reference");
    ("XPDL208", Error, "unresolved meta-model reference");
    ("XPDL210", Error, "parameter value outside its declared range");
    ("XPDL211", Error, "attribute expression cannot be evaluated");
    ("XPDL212", Error, "bad group quantity");
    ("XPDL213", Error, "constraint violated");
    ("XPDL214", Warning, "constraint not checkable (unbound parameters)");
    ("XPDL215", Error, "constraint evaluates to a non-finite (NaN) value");
    ("XPDL216", Error, "const/param declaration requires a name");
    (* XPDL3xx — compose / repository *)
    ("XPDL301", Error, "descriptor has neither name nor id; not indexed");
    ("XPDL302", Warning, "identifier shadows a definition from another file");
    ("XPDL303", Error, "cannot load descriptor file");
    ("XPDL304", Error, "cannot scan repository directory");
    ("XPDL305", Error, "unknown repository authority in hyperlink");
    ("XPDL306", Error, "unresolved inheritance reference");
    ("XPDL307", Error, "cyclic inheritance");
    ("XPDL310", Warning, "microbenchmark bootstrap left unresolved energy entries");
    (* XPDL311-314 — persistent repository index (.xpdlidx sidecars) *)
    ("XPDL311", Warning, "repository index corrupt or unreadable; rebuilt from a full scan");
    ("XPDL312", Info, "repository index refreshed (stale, new or deleted files re-scanned)");
    ("XPDL313", Warning, "cannot write repository index");
    ("XPDL314", Warning, "indexed descriptor no longer present in its file");
    (* XPDL4xx — incremental model store *)
    ("XPDL401", Error, "store edit path does not address a model element");
    ("XPDL402", Error, "store structural edit is invalid (bad child index)");
    ("XPDL403", Error, "store edit value cannot be elaborated");
    ("XPDL404", Error, "store unpin of a revision that is not pinned");
    (* XPDL5xx — deployment-bootstrap robustness *)
    ("XPDL500", Error, "microbenchmark harness internal error (uncaught simulator exception)");
    ("XPDL501", Warning, "meter read timed out");
    ("XPDL502", Warning, "meter returned non-finite samples; benchmark resampled");
    ("XPDL503", Warning, "benchmark quarantined after persistent failures");
    ("XPDL504", Info, "energy interpolated from a partial frequency sweep");
    ("XPDL505", Info, "energy inherited from the meta-model/default value");
    ("XPDL506", Warning, "placeholder unresolved after the degradation ladder");
    ("XPDL507", Warning, "core went offline during the benchmark suite");
    ("XPDL508", Warning, "suite time budget exhausted; remaining benchmarks quarantined");
    (* XPDL6xx — runtime-model codec *)
    ("XPDL601", Error, "runtime model file has a bad magic number");
    ("XPDL602", Error, "unsupported runtime model format version");
    ("XPDL603", Error, "runtime model file truncated or length mismatch");
    ("XPDL604", Error, "runtime model payload checksum mismatch");
    ("XPDL605", Error, "runtime model structure corrupt (spans, parents, offsets)");
    ("XPDL606", Error, "runtime model value encoding corrupt (bad tag, key or string id)");
    ("XPDL607", Error, "runtime model header length overflow or section bounds mismatch");
    (* XPDL7xx — model-query server protocol *)
    ("XPDL700", Error, "serve frame truncated: connection closed mid-frame");
    ("XPDL701", Error, "serve frame exceeds the maximum frame size");
    ("XPDL702", Error, "serve request has an unknown opcode");
    ("XPDL703", Error, "serve request payload is malformed");
    ("XPDL704", Error, "serve query is unknown or unanswerable on this model");
    ("XPDL705", Error, "serve edit rejected by the model store");
    ("XPDL706", Error, "serve revision is not a pinned snapshot of this session");
    ("XPDL707", Info, "serve journal compacted past the requested revision; full resync needed");
    ("XPDL708", Error, "serve connection reset by peer during a frame write");
    (* XPDL8xx — design-space exploration sweeps *)
    ("XPDL801", Error, "dse template declares no sweep axes");
    ("XPDL802", Error, "dse axis specification is malformed");
    ("XPDL803", Info, "dse point pruned: range/constraint failure at this configuration");
    ("XPDL804", Warning, "dse point evaluation failed; point dropped from the front");
    ("XPDL805", Info, "dse point bootstrapped below full quality (degradation ladder)");
    ("XPDL806", Info, "dse sample quota covers the whole space; sweep made exhaustive");
    ("XPDL807", Info, "dse front empty: every selected point was pruned or failed");
    (* XPDL9xx — durability: write-ahead journal and crash recovery *)
    ("XPDL900", Error, "wal checkpoint unreadable or corrupt");
    ("XPDL901", Warning, "wal tail truncated at a torn or corrupt record");
    ("XPDL902", Error, "wal directory or journal file cannot be opened or written");
    ("XPDL903", Info, "wal recovery replayed the journal tail onto the checkpoint");
    ("XPDL904", Info, "wal directory initialized with a fresh checkpoint");
    ("XPDL905", Error, "serve edit request id replayed with a different payload");
    ("XPDL906", Error, "client request deadline exceeded or retry budget exhausted");
  ]

let describe code =
  List.find_map (fun (c, _, d) -> if String.equal c code then Some d else None) registry

let default_severity code =
  List.find_map (fun (c, s, _) -> if String.equal c code then Some s else None) registry

let error ?(code = uncategorized) ?(pos = Xpdl_xml.Dom.no_position) fmt =
  Fmt.kstr (fun message -> { severity = Error; code; pos; message }) fmt

let warning ?(code = uncategorized) ?(pos = Xpdl_xml.Dom.no_position) fmt =
  Fmt.kstr (fun message -> { severity = Warning; code; pos; message }) fmt

let info ?(code = uncategorized) ?(pos = Xpdl_xml.Dom.no_position) fmt =
  Fmt.kstr (fun message -> { severity = Info; code; pos; message }) fmt

(** Convert a positioned parse error from the XML layer, preserving its
    [XPDL0xx] code. *)
let of_parse_error (e : Xpdl_xml.Parse.error) =
  error ~code:e.Xpdl_xml.Parse.err_code ~pos:e.Xpdl_xml.Parse.err_pos "%s"
    e.Xpdl_xml.Parse.err_msg

let is_error d = d.severity = Error

let pp ppf d =
  if String.equal d.code uncategorized then
    Fmt.pf ppf "%a: %a: %s" Xpdl_xml.Dom.pp_position d.pos pp_severity d.severity d.message
  else
    Fmt.pf ppf "%a: %a[%s]: %s" Xpdl_xml.Dom.pp_position d.pos pp_severity d.severity d.code
      d.message

let pp_list ppf ds = Fmt.(list ~sep:cut pp) ppf ds

(** True if no diagnostic in the list is an error. *)
let all_ok ds = not (List.exists is_error ds)

let errors ds = List.filter is_error ds

(** [cap ~max_errors ds] truncates the list after the [max_errors]-th
    error (keeping interleaved warnings up to that point) and appends an
    [Info] summary counting the suppressed errors.  A cap below 1 is
    clamped to 1 so a failing run always shows at least one error. *)
let cap ~max_errors ds =
  let max_errors = max 1 max_errors in
  let total_errors = List.length (errors ds) in
  if total_errors <= max_errors then ds
  else begin
    let seen = ref 0 in
    let kept =
      List.filter
        (fun d ->
          if !seen >= max_errors then false
          else begin
            if is_error d then incr seen;
            true
          end)
        ds
    in
    kept
    @ [
        info "too many errors; %d further error%s suppressed (raise --max-errors to see them)"
          (total_errors - max_errors)
          (if total_errors - max_errors = 1 then "" else "s");
      ]
  end

(** One diagnostic as a JSON object (see docs/DIAGNOSTICS.md for the
    schema). *)
let to_json d =
  Fmt.str {|{"code":%s,"severity":"%s","file":%s,"line":%d,"column":%d,"message":%s}|}
    (Xpdl_kernel.json_string d.code) (severity_name d.severity)
    (Xpdl_kernel.json_string d.pos.Xpdl_xml.Dom.file)
    d.pos.Xpdl_xml.Dom.line d.pos.Xpdl_xml.Dom.column (Xpdl_kernel.json_string d.message)

(** A diagnostic list as the machine-readable report object
    [{"diagnostics": [...], "errors": n, "warnings": n}]. *)
let list_to_json ds =
  let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
  Fmt.str {|{"diagnostics":[%s],"errors":%d,"warnings":%d}|}
    (String.concat "," (List.map to_json ds))
    (count Error) (count Warning)

(** Raise [Failure] with a rendered message list if any error is present. *)
let check_exn ds =
  if not (all_ok ds) then failwith (Fmt.str "@[<v>%a@]" pp_list (errors ds))

(** Hierarchical energy modeling: synthesized attributes (Sec. III-D).

    "Every node in such a system model tree has explicitly or implicitly
    defined attributes such as static_power ... Synthesized attributes can
    be calculated by applying a rule combining attribute values of the
    node's children in the model tree, such as adding up static power
    values over the direct hardware subcomponents of the node."  (The
    paper notes the analogy to attribute grammars.)

    {!synthesize} is the generic bottom-up engine; {!static_power} and
    friends are the concrete rules the toolchain and query API use.  A
    node's own declared value takes part in the combination, so a CPU with
    [static_power="10 W"] plus caches declaring their own share aggregates
    both. *)

open Xpdl_core
open Xpdl_units

(** A synthesized attribute: how to read a node's own contribution and how
    to combine it with the children's synthesized values. *)
type 'a rule = {
  own : Model.element -> 'a option;  (** the node's directly given value *)
  combine : 'a option -> 'a list -> 'a;  (** own value + children results *)
}

(** Bottom-up evaluation of [rule] over the tree: the attribute-grammar
    engine.  Returns the synthesized value of the root. *)
let rec synthesize (rule : 'a rule) (e : Model.element) : 'a =
  let children =
    List.filter_map
      (fun (c : Model.element) ->
        if Model.is_metadata_subtree c.Model.kind then None else Some (synthesize rule c))
      e.Model.children
  in
  rule.combine (rule.own e) children

(** Like {!synthesize} but also returning the per-node table (preorder
    path-keyed), for breakdown reports.

    Path keys are unique and stable: when two identified nodes compute
    the same scope path — sibling id collisions, or group expansion
    whose [prefix]/[quantity] replicas collide with existing ids — the
    second and later occurrences (preorder = document order) get a
    [#2], [#3], ... suffix.  Unnamed nodes still report under their
    nearest identified ancestor's path (they are breakdown rows of that
    component, not components themselves). *)
let synthesize_table (rule : 'a rule) (e : Model.element) : 'a * (string * 'a) list =
  let table = ref [] in
  let used = Hashtbl.create 64 in
  let unique p =
    match Hashtbl.find_opt used p with
    | None ->
        Hashtbl.add used p 1;
        p
    | Some k ->
        Hashtbl.replace used p (k + 1);
        Fmt.str "%s#%d" p (k + 1)
  in
  let rec go path (e : Model.element) : 'a =
    let path =
      match Model.identifier e with
      | Some i -> unique (if path = "" then i else path ^ "/" ^ i)
      | None -> path
    in
    let children =
      List.filter_map
        (fun (c : Model.element) ->
          if Model.is_metadata_subtree c.Model.kind then None else Some (go path c))
        e.Model.children
    in
    let v = rule.combine (rule.own e) children in
    table := (path, v) :: !table;
    v
  in
  let total = go "" e in
  (total, List.rev !table)

(** {1 Concrete rules} *)

let quantity_of e key =
  if Schema.is_hardware e.Model.kind then
    Option.map Units.value (Model.attr_quantity e key)
  else None

let sum_rule key : float rule =
  {
    own = (fun e -> quantity_of e key);
    combine =
      (fun own children ->
        Option.value ~default:0. own +. List.fold_left ( +. ) 0. children);
  }

let static_power_rule : float rule = sum_rule "static_power"

let core_count_rule : int rule =
  {
    own = (fun x -> if Schema.equal_kind x.Model.kind Schema.Core then Some 1 else None);
    combine = (fun own kids -> Option.value ~default:0 own + List.fold_left ( + ) 0 kids);
  }

let memory_bytes_rule : float rule =
  {
    own =
      (fun x ->
        if Schema.equal_kind x.Model.kind Schema.Memory then
          Option.map Units.value (Model.attr_quantity x "size")
        else None);
    combine = (fun own kids -> Option.value ~default:0. own +. List.fold_left ( +. ) 0. kids);
  }

(** Total static power (W) of the subtree: declared values summed over
    all hardware components. *)
let static_power (e : Model.element) : float = synthesize static_power_rule e

(** Static power with per-component breakdown. *)
let static_power_breakdown e = synthesize_table static_power_rule e

(** Total core count — the derived-attribute example of Sec. IV. *)
let core_count (e : Model.element) : int = synthesize core_count_rule e

(** Total memory capacity in bytes. *)
let memory_bytes (e : Model.element) : float = synthesize memory_bytes_rule e

(** The motherboard share (Sec. III-B): hardware not modeled explicitly
    still costs energy; its static share is attributed to the node.
    [node_static_power ~measured_total] distributes the difference between
    an externally measured machine idle power and the modeled sum onto the
    root node. *)
let unmodeled_share ~measured_total (e : Model.element) : float =
  Float.max 0. (measured_total -. static_power e)

(** Static energy (J) of keeping the subtree powered for [duration] s. *)
let static_energy ~duration (e : Model.element) : float = static_power e *. duration

(** Instantiation: parameter binding, group expansion, constraint checking.

    After inheritance is flattened ({!Inheritance}), a model may still
    contain the configurability machinery of Sec. III-B:

    - [<const>] definitions ([shmtotalsize] in Listing 8);
    - [<param>] declarations, possibly [configurable], possibly with a
      [range] of admissible values, given concrete values by subtypes
      (Listing 9) or instances (Listing 10);
    - attribute values that are expressions over those names
      ([size="L1size"], [quantity="num_SM"]);
    - [<constraint expr="..."/>] elements that must hold for the chosen
      configuration ([L1size + shmsize == shmtotalsize]).

    Instantiation walks the tree top-down with a scoped environment,
    substitutes parameter values into attribute expressions, verifies
    ranges and constraints, and expands [group] elements: a group with
    [quantity=n] becomes [n] sibling scope copies; with a [prefix], the
    copies are identified [prefix0 .. prefix(n-1)] (Listing 1: [core0 ..
    core3]).  Expanded groups remain in the tree as scope nodes because
    hierarchical scoping defines cache sharing (L2 shared by the two cores
    of its group). *)

open Xpdl_units

type env = (string * Xpdl_expr.Expr.value) list

(* The bindings in force in one scope: the association list that inner
   scopes extend, and the expression environment built from it once. *)
type scope = { bindings : env; xenv : Xpdl_expr.Expr.env }

let scope_of bindings = { bindings; xenv = Xpdl_expr.Expr.env_of_list bindings }

let quantity_value (q : Units.t) = Xpdl_expr.Expr.Num (Units.value q)

(* The value a <param>/<const> contributes to the environment: its [value]
   expression, or its metric attribute (size/frequency), normalized SI. *)
let binding_value env (e : Model.element) : Xpdl_expr.Expr.value option =
  let eval_expr ex =
    match Xpdl_expr.Expr.eval (Xpdl_expr.Expr.env_of_list env) ex with
    | v -> Some v
    | exception (Xpdl_expr.Expr.Error _ | Xpdl_expr.Expr.Non_finite _) -> None
  in
  match Model.attr e "value" with
  | Some (Model.Expr (ex, _)) -> eval_expr ex
  | Some (Model.Int i) -> Some (Xpdl_expr.Expr.Num (float_of_int i))
  | Some (Model.Float f) -> Some (Xpdl_expr.Expr.Num f)
  | Some (Model.Str s) -> Some (Xpdl_expr.Expr.Str s)
  | Some (Model.Quantity (q, _)) -> Some (quantity_value q)
  | Some (Model.Bool b) -> Some (Xpdl_expr.Expr.Bool b)
  | Some Model.Unknown | None -> (
      match (Model.attr_quantity e "size", Model.attr_quantity e "frequency") with
      | Some q, _ | None, Some q -> Some (quantity_value q)
      | None, None -> None)

(* Check a param's bound value against its declared range (a
   comma-separated list interpreted in the param's [unit]). *)
let check_range diags scope (p : Model.element) =
  match (Model.attr_string p "range", List.assoc_opt (Option.value ~default:"" p.name) scope.bindings) with
  | Some range_s, Some (Xpdl_expr.Expr.Num v) -> (
      (* the unit spelling: an explicit [unit] attribute, or the spelling
         the param's metric value was written in (elaboration consumes the
         companion [unit] into the quantity) *)
      let quantity_spelling =
        List.find_map
          (fun key ->
            match Model.attr p key with
            | Some (Model.Quantity (_, spelling)) -> Some spelling
            | _ -> None)
          [ "value"; "size"; "frequency" ]
      in
      let unit_spelling =
        match Model.attr_string p "unit" with Some u -> Some u | None -> quantity_spelling
      in
      let parse_item s =
        let s = String.trim s in
        match unit_spelling with
        | Some u when Units.is_known_unit u -> (
            match Units.of_string_opt s u with Some q -> Some (Units.value q) | None -> None)
        | Some _ | None -> float_of_string_opt s
      in
      let items = String.split_on_char ',' range_s |> List.filter_map parse_item in
      match items with
      | [] -> ()
      | _ ->
          if not (List.exists (fun x -> Float.abs (x -. v) <= 1e-9 *. Float.max 1. (Float.abs x)) items)
          then
            diags :=
              Diagnostic.error ~code:"XPDL210" ~pos:p.pos "param %s: value %g outside declared range {%s}"
                (Option.value ~default:"?" p.name)
                v range_s
              :: !diags)
  | _ -> ()

let canonical_unit = function
  | Units.Size -> "B"
  | Units.Frequency -> "Hz"
  | Units.Power -> "W"
  | Units.Energy -> "J"
  | Units.Time -> "s"
  | Units.Bandwidth -> "B/s"
  | Units.Voltage -> "V"
  | Units.Temperature -> "K"
  | Units.Scalar -> ""

(* Substitute expression-valued attributes using the scope's bindings;
   the schema's declared dimension rewraps plain numbers into quantities.
   An element with no expression attribute is returned itself. *)
let substitute_attrs diags scope (e : Model.element) : Model.element =
  let subst ((key, v) as attr) =
    match v with
    (* a <constraint expr="..."> is a predicate, owned (and diagnosed)
       by check_constraints — substituting it here would double-report
       every failing evaluation *)
    | Model.Expr _ when e.Model.kind = Schema.Constraint && String.equal key "expr" -> attr
    | Model.Expr (ex, src) -> (
        let ids = Xpdl_expr.Expr.free_idents ex in
        let all_bound = List.for_all (fun i -> List.mem_assoc i scope.bindings) ids in
        if not all_bound then attr
        else
          match Xpdl_expr.Expr.eval scope.xenv ex with
          | Xpdl_expr.Expr.Num f -> (
              match Schema.attr_spec e.kind key with
              | Some { a_type = Schema.A_quantity dim; _ } ->
                  (* env values are SI-normalized *)
                  (key, Model.Quantity (Units.make f dim, canonical_unit dim))
              | Some { a_type = Schema.A_int; _ } -> (key, Model.Int (int_of_float f))
              | _ ->
                  if Float.is_integer f && List.length ids > 0 then (key, Model.Float f)
                  else if ids = [] then attr (* pure literal: keep *)
                  else (key, Model.Float f))
          | Xpdl_expr.Expr.Bool b -> (key, Model.Bool b)
          | Xpdl_expr.Expr.Str s -> (key, Model.Str s)
          | exception (Xpdl_expr.Expr.Error msg | Xpdl_expr.Expr.Non_finite msg) ->
              diags :=
                Diagnostic.error ~code:"XPDL211" ~pos:e.pos "attribute %s: cannot evaluate %S: %s" key src msg
                :: !diags;
              attr)
    | _ -> attr
  in
  if List.exists (fun (_, v) -> match v with Model.Expr _ -> true | _ -> false) e.attrs then
    { e with attrs = List.map subst e.attrs }
  else e

let eval_quantity diags scope (g : Model.element) : int option =
  match Model.attr g "quantity" with
  | None -> None
  | Some (Model.Int i) -> Some i
  | Some (Model.Float f) -> Some (int_of_float f)
  | Some (Model.Expr (ex, src)) -> (
      match Xpdl_expr.Expr.eval_num scope.xenv ex with
      | f ->
          if f < 0. then begin
            diags :=
              Diagnostic.error ~code:"XPDL212" ~pos:g.pos "group quantity %S evaluates to negative %g" src f
              :: !diags;
            None
          end
          else Some (int_of_float f)
      | exception (Xpdl_expr.Expr.Error msg | Xpdl_expr.Expr.Non_finite msg) ->
          diags :=
            Diagnostic.error ~code:"XPDL212" ~pos:g.pos "group quantity %S: %s (unbound parameter?)" src msg
            :: !diags;
          None)
  | Some v ->
      diags :=
        Diagnostic.error ~code:"XPDL212" ~pos:g.pos "group quantity has non-numeric value %a" Model.pp_attr_value
          v
        :: !diags;
      None

let check_constraints diags scope (e : Model.element) =
  List.iter
    (fun (cs : Model.element) ->
      List.iter
        (fun (c : Model.element) ->
          match Model.attr c "expr" with
          | Some (Model.Expr (ex, src)) -> (
              match Xpdl_expr.Expr.eval scope.xenv ex with
              | Xpdl_expr.Expr.Num f when not (Float.is_finite f) ->
                  (* a NaN/inf "result" would compare arbitrarily; that is
                     a model bug, not an unsatisfied constraint *)
                  diags :=
                    Diagnostic.error ~code:"XPDL215" ~pos:c.pos
                      "constraint %S evaluates to non-finite %g" src f
                    :: !diags
              | Xpdl_expr.Expr.Str _ ->
                  diags :=
                    Diagnostic.warning ~code:"XPDL214" ~pos:c.pos
                      "constraint %S not checkable: evaluates to a string" src
                    :: !diags
              | (Xpdl_expr.Expr.Bool _ | Xpdl_expr.Expr.Num _) as v ->
                  let holds =
                    match v with
                    | Xpdl_expr.Expr.Bool b -> b
                    | Xpdl_expr.Expr.Num f -> f <> 0.
                    | Xpdl_expr.Expr.Str _ -> assert false
                  in
                  if not holds then
                    diags :=
                      Diagnostic.error ~code:"XPDL213" ~pos:c.pos "constraint violated: %s" src
                      :: !diags
              | exception Xpdl_expr.Expr.Non_finite msg ->
                  diags :=
                    Diagnostic.error ~code:"XPDL215" ~pos:c.pos
                      "constraint %S not meaningful: %s" src msg
                    :: !diags
              | exception Xpdl_expr.Expr.Error msg ->
                  diags :=
                    Diagnostic.warning ~code:"XPDL214" ~pos:c.pos
                      "constraint %S not checkable: %s" src msg
                    :: !diags)
          | _ -> ())
        (Model.children_of_kind cs Schema.Constraint))
    (Model.children_of_kind e Schema.Constraints)

(* How one child of a scope expanded: [Self] is the walk of the child
   itself, which keeps the child's id; [Copies] are the scopes that a
   replicated group became. *)
type expansion = Self of Model.element | Copies of Model.element list

(* The children that [expansions] (one per child, in order) stand for;
   [children] itself when every child came back unchanged.  The
   [principal] child, if given, takes the identifier [ident]. *)
let assemble ?principal (children : Model.element list) expansions =
  let rec go i children expansions =
    match (children, expansions) with
    | c :: rest, x :: xs -> (
        let rest' = go (i + 1) rest xs in
        match x with
        | Self c' -> (
            match principal with
            | Some (j, ident) when i = j -> { c' with id = ident } :: rest'
            | _ -> if c' == c && rest' == rest then children else c' :: rest')
        | Copies cs -> cs @ rest')
    | _ -> []
  in
  go 0 children expansions

(** [run ?env root] instantiates [root]: binds consts/params scope-wise,
    substitutes expressions, checks ranges and constraints, and expands
    groups.  [env] provides external configuration overrides (name →
    value, SI-normalized), e.g. choosing [L1size] at deployment time.
    Returns the expanded tree and diagnostics; the tree is usable even
    with diagnostics present (erroneous parts are left unexpanded).
    A subtree that instantiation does not change is returned itself, and
    the copies of a replicated group share every subtree but the ones
    their identifiers differ in. *)
let run ?(env : env = []) (root : Model.element) : Model.element * Diagnostic.t list =
  let diags = ref [] in
  (* names fixed by external deployment configuration: these override any
     declaration in the tree; everything else follows lexical scoping
     (an inner <param> shadows an enclosing scope's) *)
  let external_names = List.map fst env in
  let bind env (c : Model.element) =
    match c.kind with
    | Schema.Const | Schema.Param -> (
        match c.name with
        | Some n -> (
            if List.mem n external_names && c.kind = Schema.Param then env
            else
              match binding_value env c with
              | Some v -> (n, v) :: env
              | None -> env)
        | None ->
            diags :=
              Diagnostic.error ~code:"XPDL216" ~pos:c.pos "<%s> requires a name"
                (Schema.tag_of_kind c.kind)
              :: !diags;
            env)
    | _ -> env
  in
  (* Steps 1-4 of a scope: its bindings, range checks, attribute
     substitution and constraints.  Returns the scope its children see
     and the substituted element. *)
  let enter scope (e : Model.element) =
    (* 1. gather const/param bindings declared directly under [e] *)
    let bindings = List.fold_left bind scope.bindings e.children in
    let scope = if bindings == scope.bindings then scope else scope_of bindings in
    (* 2. range checks for params in scope *)
    List.iter
      (fun (c : Model.element) -> if c.kind = Schema.Param then check_range diags scope c)
      e.children;
    (* 3. substitute this element's expression attributes *)
    let e = substitute_attrs diags scope e in
    (* 4. constraints attached here *)
    check_constraints diags scope e;
    (scope, e)
  in
  let rec walk scope (e : Model.element) : Model.element =
    let scope, e = enter scope e in
    (* 5. recurse into children, expanding groups *)
    let children = assemble e.children (List.map (expand scope) e.children) in
    if children == e.children then e else { e with children }
  and expand scope (c : Model.element) : expansion =
    match c.kind with
    | Schema.Group -> (
        let c = substitute_attrs diags scope c in
        match eval_quantity diags scope c with
        | None ->
            (* plain grouping scope, no replication *)
            Self
              (walk scope
                 (if List.mem_assoc "quantity" c.attrs then
                    { c with attrs = List.remove_assoc "quantity" c.attrs }
                  else c))
        | Some n -> Copies (replicate scope c n))
    | _ -> Self (walk scope c)
  and replicate scope (c : Model.element) n =
    let prefix = Model.attr_string c "prefix" in
    let attrs = List.filter (fun (k, _) -> not (List.mem k [ "quantity"; "prefix" ])) c.attrs in
    let member children =
      { c with kind = Schema.Group; id = None; name = (if n > 1 then None else c.name); attrs; children }
    in
    let copies =
      if n = 0 then []
      else if prefix = None && n > 1 && List.exists (fun (ch : Model.element) -> ch.name <> None) c.children
      then
        (* Replicating without prefix suffixes the names of named
           children so definitions stay unique (Shave_pd0..7).  A name
           is what a <const>/<param> binds, so walk each copy. *)
        List.init n (fun i ->
            let suffix (ch : Model.element) =
              match ch.name with Some s -> { ch with name = Some (s ^ string_of_int i) } | None -> ch
            in
            walk scope (member (List.map suffix c.children)))
      else begin
        (* The copies differ only in their own identifier and in the one
           of the single unidentified principal child, which the walk
           never reads: walk the member once, replay its diagnostics once
           per copy, and share everything else. *)
        let outer = !diags in
        diags := [];
        let scope, m = enter scope (member c.children) in
        let expansions = List.map (expand scope) m.children in
        let member_diags = !diags in
        diags := outer;
        let unidentified (ch : Model.element) = Model.identifier ch = None in
        let children_of =
          match prefix with
          | Some _ when List.length (List.filter unidentified m.children) = 1 ->
              let j = Option.get (List.find_index unidentified m.children) in
              fun id -> assemble ~principal:(j, id) m.children expansions
          | Some _ | None ->
              let shared = assemble m.children expansions in
              fun _ -> shared
        in
        List.init n (fun i ->
            diags := member_diags @ !diags;
            let id = Option.map (fun p -> p ^ string_of_int i) prefix in
            { m with id; children = children_of id })
      end
    in
    if n > 1 && c.name <> None then
      (* keep a named wrapper so the group itself stays
         addressable (switchoffCondition "Shave_pds off") *)
      [ { c with attrs; children = copies; id = None } ]
    else copies
  in
  let result = walk (scope_of env) root in
  (result, List.rev !diags)

(** All parameter names still unbound (declared without value and not
    substituted) in the subtree; useful to report required configuration. *)
let unbound_params (root : Model.element) : string list =
  List.rev
    (Model.fold
       (fun acc (e : Model.element) ->
         if e.kind = Schema.Param && Model.attr e "value" = None
            && Model.attr_quantity e "size" = None
            && Model.attr_quantity e "frequency" = None
         then match e.name with Some n when not (List.mem n acc) -> n :: acc | _ -> acc
         else acc)
       [] root)

(** Instantiation: parameter binding, group expansion, constraint
    checking (Sec. III-B).

    Walks an inheritance-flattened model top-down with a scoped
    environment of [<const>]/[<param>] bindings, substitutes parameter
    values into attribute expressions, verifies declared [range]s and
    [<constraint>]s, and expands [group] elements: [quantity=n] becomes
    [n] sibling scope copies, identified [prefix0 .. prefix(n-1)]
    (Listing 1's [core0..core3]). *)

(** External configuration overrides: name → SI-normalized value. *)
type env = (string * Xpdl_expr.Expr.value) list

(** Instantiate; the tree is usable even with diagnostics present
    (erroneous parts are left unexpanded).  The result shares subtrees:
    a subtree that instantiation does not change is the input's own,
    and the [n] copies of a group with a [prefix] share every subtree
    but their scope and principal child, whose identifiers differ.
    Never compare its elements with [==]/[!=]. *)
val run : ?env:env -> Model.element -> Model.element * Diagnostic.t list

(** Parameter names still unbound in the subtree (required deployment
    configuration). *)
val unbound_params : Model.element -> string list

(** The core XPDL meta-model: element kinds and their attribute schemas.

    This module is the OCaml counterpart of the central [xpdl.xsd] schema
    from which the paper generates the C++ runtime classes (Sec. IV).  It
    enumerates every element kind the language defines, which attributes
    each kind admits, the type/dimension of each attribute, and which
    kinds may nest inside which.  {!Validate} checks models against these
    tables; PDL, by contrast, can only model such information as untyped
    string properties (Sec. II-C), which is one of the comparisons in the
    E9 experiment. *)

(** Element kinds of the XPDL language, one per XML tag. *)
type kind =
  | System  (** top-level concrete machine model *)
  | Cluster
  | Node
  | Socket
  | Cpu
  | Core
  | Cache
  | Memory
  | Device  (** accelerator board: GPU, DSP card, ... *)
  | Interconnect
  | Interconnects  (** container grouping interconnect instances *)
  | Channel  (** directional sub-link of an interconnect (Listing 3) *)
  | Group  (** grouping/replication construct (prefix/quantity) *)
  | Software  (** container for installed system software *)
  | Host_os
  | Installed
  | Programming_model
  | Power_model
  | Power_domains
  | Power_domain
  | Power_state_machine
  | Power_states
  | Power_state
  | Transitions
  | Transition
  | Instructions
  | Instruction  (** [<inst>] *)
  | Data  (** per-frequency value row inside [<inst>] (Listing 14) *)
  | Microbenchmarks
  | Microbenchmark
  | Const
  | Param
  | Constraints
  | Constraint
  | Properties
  | Property
  | Other of string  (** unknown tag, preserved for extensibility *)

let kind_of_tag = function
  | "system" -> System
  | "cluster" -> Cluster
  | "node" -> Node
  | "socket" -> Socket
  | "cpu" -> Cpu
  | "core" -> Core
  | "cache" -> Cache
  | "memory" -> Memory
  | "device" | "gpu" -> Device
  | "interconnect" -> Interconnect
  | "interconnects" -> Interconnects
  | "channel" -> Channel
  | "group" -> Group
  | "software" -> Software
  | "hostOS" -> Host_os
  | "installed" -> Installed
  | "programming_model" -> Programming_model
  | "power_model" -> Power_model
  | "power_domains" -> Power_domains
  | "power_domain" -> Power_domain
  | "power_state_machine" -> Power_state_machine
  | "power_states" -> Power_states
  | "power_state" -> Power_state
  | "transitions" -> Transitions
  | "transition" -> Transition
  | "instructions" -> Instructions
  | "inst" -> Instruction
  | "data" -> Data
  | "microbenchmarks" -> Microbenchmarks
  | "microbenchmark" -> Microbenchmark
  | "const" -> Const
  | "param" -> Param
  | "constraints" -> Constraints
  | "constraint" -> Constraint
  | "properties" -> Properties
  | "property" -> Property
  | tag -> Other tag

let tag_of_kind = function
  | System -> "system"
  | Cluster -> "cluster"
  | Node -> "node"
  | Socket -> "socket"
  | Cpu -> "cpu"
  | Core -> "core"
  | Cache -> "cache"
  | Memory -> "memory"
  | Device -> "device"
  | Interconnect -> "interconnect"
  | Interconnects -> "interconnects"
  | Channel -> "channel"
  | Group -> "group"
  | Software -> "software"
  | Host_os -> "hostOS"
  | Installed -> "installed"
  | Programming_model -> "programming_model"
  | Power_model -> "power_model"
  | Power_domains -> "power_domains"
  | Power_domain -> "power_domain"
  | Power_state_machine -> "power_state_machine"
  | Power_states -> "power_states"
  | Power_state -> "power_state"
  | Transitions -> "transitions"
  | Transition -> "transition"
  | Instructions -> "instructions"
  | Instruction -> "inst"
  | Data -> "data"
  | Microbenchmarks -> "microbenchmarks"
  | Microbenchmark -> "microbenchmark"
  | Const -> "const"
  | Param -> "param"
  | Constraints -> "constraints"
  | Constraint -> "constraint"
  | Properties -> "properties"
  | Property -> "property"
  | Other tag -> tag

let equal_kind (a : kind) (b : kind) =
  match (a, b) with
  | Other x, Other y -> String.equal x y
  | Other _, _ | _, Other _ -> false
  | _ -> a == b (* constant constructors: immediate values *)

let pp_kind ppf k = Fmt.string ppf (tag_of_kind k)

(** Declared type of an attribute value in the schema. *)
type attr_type =
  | A_string
  | A_int
  | A_float
  | A_bool
  | A_ident  (** a reference to a named model/meta-model *)
  | A_quantity of Xpdl_units.Units.dimension
      (** numeric metric whose unit comes from the sibling [<metric>_unit]
          attribute (or [unit] for [size]) *)
  | A_enum of string list
  | A_expr  (** an {!Xpdl_expr.Expr} expression *)

(** Schema entry for one attribute of one element kind. *)
type attr_spec = {
  a_name : string;
  a_type : attr_type;
  a_required : bool;
}

let req name ty = { a_name = name; a_type = ty; a_required = true }
let opt name ty = { a_name = name; a_type = ty; a_required = false }

(* Attributes common to every element kind: identification and reuse
   machinery (Sec. III-A). *)
let common_attrs =
  [
    opt "name" A_ident;  (* meta-model identifier *)
    opt "id" A_ident;  (* concrete-model identifier *)
    opt "type" A_ident;  (* reference to a meta-model *)
    opt "extends" A_string;  (* whitespace-separated supertype list *)
    opt "role" (A_enum [ "master"; "worker"; "hybrid" ]);
  ]

open Xpdl_units

(* Kind-specific attribute tables.  Metric attributes are declared once;
   the elaborator pairs them with their metric_unit sibling.  Each kind's
   tables are built once, at module initialisation: elaboration,
   instantiation and validation read them per attribute or per element. *)
type kind_attrs = {
  k_specific : attr_spec list;
  k_all : attr_spec list;  (* common + specific *)
  k_required : attr_spec list;
}

let of_specific specific =
  {
    k_specific = specific;
    k_all = common_attrs @ specific;
    k_required = List.filter (fun s -> s.a_required) specific;
  }

let kind_attrs : kind -> kind_attrs =
  let none = of_specific [] in
  let hardware_scope = of_specific [ opt "static_power" (A_quantity Units.Power) ] in
  let cpu =
    of_specific
      [
        opt "frequency" (A_quantity Units.Frequency);
        opt "cores" A_int;
        opt "static_power" (A_quantity Units.Power);
        opt "max_power" (A_quantity Units.Power);
        opt "lithography" A_string;
        opt "vendor" A_string;
      ]
  in
  let core =
    of_specific
      [
        opt "frequency" (A_quantity Units.Frequency);
        opt "endian" (A_enum [ "LE"; "BE" ]);
        opt "isa" A_ident;
        opt "static_power" (A_quantity Units.Power);
        opt "threads" A_int;
      ]
  in
  let cache =
    of_specific
      [
        opt "size" (A_quantity Units.Size);
        opt "sets" A_int;
        opt "ways" A_int;
        opt "line_size" (A_quantity Units.Size);
        opt "replacement" (A_enum [ "LRU"; "FIFO"; "random"; "PLRU" ]);
        opt "write_policy" (A_enum [ "copyback"; "writethrough" ]);
        opt "latency" (A_quantity Units.Time);
        opt "energy_per_access" (A_quantity Units.Energy);
        opt "level" A_int;
        opt "static_power" (A_quantity Units.Power);
        opt "shared" A_bool;
      ]
  in
  let memory =
    of_specific
      [
        opt "size" (A_quantity Units.Size);
        opt "static_power" (A_quantity Units.Power);
        opt "latency" (A_quantity Units.Time);
        opt "bandwidth" (A_quantity Units.Bandwidth);
        opt "energy_per_access" (A_quantity Units.Energy);
        opt "slices" A_int;
        opt "endian" (A_enum [ "LE"; "BE" ]);
        opt "ecc" A_bool;
      ]
  in
  let device =
    of_specific
      [
        opt "compute_capability" A_float;
        opt "static_power" (A_quantity Units.Power);
        opt "max_power" (A_quantity Units.Power);
        opt "frequency" (A_quantity Units.Frequency);
        opt "vendor" A_string;
      ]
  in
  let interconnect =
    of_specific
      [
        opt "head" A_ident;
        opt "tail" A_ident;
        opt "max_bandwidth" (A_quantity Units.Bandwidth);
        opt "latency" (A_quantity Units.Time);
        opt "static_power" (A_quantity Units.Power);
        opt "duplex" (A_enum [ "half"; "full" ]);
      ]
  in
  let channel =
    of_specific
      [
        opt "max_bandwidth" (A_quantity Units.Bandwidth);
        opt "time_offset_per_message" (A_quantity Units.Time);
        opt "energy_per_byte" (A_quantity Units.Energy);
        opt "energy_offset_per_message" (A_quantity Units.Energy);
        opt "latency" (A_quantity Units.Time);
      ]
  in
  let group =
    of_specific
      [
        opt "prefix" A_string;
        opt "quantity" A_expr;  (* integer literal or parameter name, Listing 8 *)
      ]
  in
  let host_os = of_specific [ opt "kernel" A_string; opt "version" A_string ] in
  let installed = of_specific [ opt "path" A_string; opt "version" A_string ] in
  let power_domain =
    of_specific
      [
        opt "enableSwitchOff" A_bool;
        opt "switchoffCondition" A_string;  (* "<group> off" per Listing 12 *)
        opt "idle_power" (A_quantity Units.Power);
      ]
  in
  let power_state_machine = of_specific [ opt "power_domain" A_ident ] in
  let power_state =
    of_specific
      [
        opt "frequency" (A_quantity Units.Frequency);
        opt "power" (A_quantity Units.Power);
        opt "voltage" (A_quantity Units.Voltage);
        opt "kind" (A_enum [ "P"; "C" ]);
      ]
  in
  let transition =
    of_specific
      [
        req "head" A_ident;
        req "tail" A_ident;
        opt "time" (A_quantity Units.Time);
        opt "energy" (A_quantity Units.Energy);
      ]
  in
  let instructions = of_specific [ opt "mb" A_ident ] in
  let instruction =
    of_specific
      [
        opt "energy" (A_quantity Units.Energy);
        opt "latency" A_int;  (* cycles *)
        opt "throughput" A_float;  (* instructions/cycle *)
        opt "mb" A_ident;
      ]
  in
  let data =
    of_specific
      [
        opt "frequency" (A_quantity Units.Frequency);
        opt "energy" (A_quantity Units.Energy);
        opt "power" (A_quantity Units.Power);
      ]
  in
  let microbenchmarks =
    of_specific
      [
        opt "instruction_set" A_ident;
        opt "path" A_string;
        opt "command" A_string;
      ]
  in
  let microbenchmark =
    of_specific
      [
        opt "file" A_string;
        opt "cflags" A_string;
        opt "lflags" A_string;
        opt "iterations" A_int;
      ]
  in
  let const =
    of_specific
      [
        opt "size" (A_quantity Units.Size);
        opt "value" A_expr;
        opt "unit" A_string;
      ]
  in
  let param =
    of_specific
      [
        opt "configurable" A_bool;
        opt "value" A_expr;
        opt "range" A_string;  (* comma-separated allowed values *)
        opt "size" (A_quantity Units.Size);
        opt "frequency" (A_quantity Units.Frequency);
        opt "unit" A_string;
      ]
  in
  let constraint_ = of_specific [ req "expr" A_expr ] in
  let property = of_specific [ opt "value" A_string; opt "command" A_string ] in
  function
  | System | Node | Socket | Cluster -> hardware_scope
  | Cpu -> cpu
  | Core -> core
  | Cache -> cache
  | Memory -> memory
  | Device -> device
  | Interconnect -> interconnect
  | Channel -> channel
  | Group -> group
  | Host_os -> host_os
  | Installed -> installed
  | Power_domain -> power_domain
  | Power_state_machine -> power_state_machine
  | Power_state -> power_state
  | Transition -> transition
  | Instructions -> instructions
  | Instruction -> instruction
  | Data -> data
  | Microbenchmarks -> microbenchmarks
  | Microbenchmark -> microbenchmark
  | Const -> const
  | Param -> param
  | Constraint -> constraint_
  | Property -> property
  | Interconnects
  | Software
  | Programming_model
  | Power_model
  | Power_domains
  | Power_states
  | Transitions
  | Constraints
  | Properties
  | Other _ ->
      none

let specific_attrs kind = (kind_attrs kind).k_specific

(** All attribute specs admitted by [kind] (common + specific). *)
let attrs_of_kind kind = (kind_attrs kind).k_all

let required_attrs kind = (kind_attrs kind).k_required

(** Look up the spec of attribute [name] on [kind]. *)
let attr_spec kind name =
  let rec find = function
    | [] -> None
    | s :: rest -> if String.equal s.a_name name then Some s else find rest
  in
  find (attrs_of_kind kind)

(* "type" on <param name="..." type="msize"/> in Listing 8 declares the
   param's value type rather than a meta-model reference; recognized
   param-type names: *)
let param_type_names = [ "msize"; "integer"; "frequency"; "float"; "string"; "boolean" ]

let is_param_type name = List.exists (String.equal name) param_type_names

(** Which child kinds may appear under each parent kind (structural
    containment, Sec. III-B).  [Group] is transparent: it may appear
    anywhere a structural child may, and admits the parent's children. *)
let allowed_children : kind -> kind list = function
  | System ->
      [ Cluster; Node; Socket; Cpu; Memory; Device; Interconnects; Interconnect; Software;
        Properties; Group; Power_model ]
  | Cluster -> [ Node; Group; Interconnects; Interconnect; Properties ]
  | Node ->
      [ Socket; Cpu; Memory; Device; Interconnects; Interconnect; Group; Properties; Power_model ]
  | Socket -> [ Cpu; Group ]
  | Cpu ->
      [ Core; Cache; Memory; Group; Power_model; Instructions; Properties; Const; Param;
        Constraints ]
  | Core -> [ Cache; Group; Power_model; Instructions; Properties ]
  | Cache -> []
  | Memory -> []
  | Device ->
      [ Socket; Cpu; Core; Cache; Memory; Group; Power_model; Programming_model; Const; Param;
        Constraints; Properties; Instructions ]
  | Interconnect -> [ Channel; Properties ]
  | Interconnects -> [ Interconnect; Group ]
  | Channel -> []
  | Group ->
      [ Core; Cache; Memory; Cpu; Socket; Node; Device; Group; Interconnect; Power_domain;
        Power_state; Memory ]
  | Software -> [ Host_os; Installed; Programming_model ]
  | Host_os -> []
  | Installed -> []
  | Programming_model -> []
  | Power_model -> [ Power_domains; Power_state_machine; Instructions; Microbenchmarks ]
  | Power_domains -> [ Power_domain; Group ]
  | Power_domain -> [ Core; Cpu; Memory; Cache; Device; Group ]
  | Power_state_machine -> [ Power_states; Transitions ]
  | Power_states -> [ Power_state; Group ]
  | Power_state -> []
  | Transitions -> [ Transition ]
  | Transition -> []
  | Instructions -> [ Instruction ]
  | Instruction -> [ Data ]
  | Data -> []
  | Microbenchmarks -> [ Microbenchmark ]
  | Microbenchmark -> []
  | Const -> []
  | Param -> []
  | Constraints -> [ Constraint ]
  | Constraint -> []
  | Properties -> [ Property ]
  | Property -> []
  | Other _ -> []

(** True if [child] may structurally appear directly under [parent]. *)
let child_allowed ~parent ~child =
  match child with
  | Other _ -> true (* extensibility escape hatch *)
  | _ -> List.exists (fun k -> equal_kind k child) (allowed_children parent)

(** Kinds that denote hardware components contributing static power
    (the nodes of the hierarchical energy model, Sec. III-D). *)
let is_hardware = function
  | System | Cluster | Node | Socket | Cpu | Core | Cache | Memory | Device | Interconnect
  | Channel ->
      true
  | Interconnects | Group | Software | Host_os | Installed | Programming_model | Power_model
  | Power_domains | Power_domain | Power_state_machine | Power_states | Power_state
  | Transitions | Transition | Instructions | Instruction | Data | Microbenchmarks
  | Microbenchmark | Const | Param | Constraints | Constraint | Properties | Property
  | Other _ ->
      false

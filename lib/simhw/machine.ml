(** The simulated target machine.

    A {!t} is constructed from a composed XPDL model (the output of the
    toolchain front end) and plays the role of the physical EXCESS
    platforms in the paper: it executes instruction workloads on its
    cores, transfers data over its interconnects, and exposes a simulated
    external power meter — the [ExternalPowerMeter] property of
    Listing 11.  All observations are noisy measurements of the hidden
    {!Truth} model, so the microbenchmarking bootstrap has something real
    to estimate.

    The execution model is deliberately simple and analytic (an in-order
    core: cycles = Σ count·latency; energy = static + Σ count·E(f) +
    accesses·E_access), because the paper's toolchain only needs
    per-instruction averages, transfer costs and power samples. *)

open Xpdl_core

type core = {
  core_ident : string;  (** path-like unique id *)
  core_element : Model.element;
  mutable hz : float;  (** current clock (DVFS state) *)
  nominal_hz : float;
  isa : string option;
  mutable core_offline : bool;  (** dropped by a fault plan; refuses work *)
}

type link = {
  link_ident : string;
  head : string option;
  tail : string option;
  bandwidth : float;  (** B/s *)
  time_offset : float;  (** s per message *)
  energy_per_byte : float;  (** J/B *)
  energy_offset : float;  (** J per message *)
}

type t = {
  model : Model.element;
  cores : core array;
  links : link array;
  truth : Truth.t;
  static_power : float;  (** W, whole machine, all domains on *)
  mem_access_energy : float;  (** J per (cache-missing) memory access *)
  mem_access_time : float;  (** s per memory access *)
  rng : Rng.t;
  mutable faults : Faults.plan option;  (** attached fault-injection plan *)
  latencies : (string, int) Hashtbl.t;
      (** instruction → declared latency (cycles), from the first ISA in
          model order that gives it one *)
  power : Power.t;  (** the power model of [model], extracted once *)
}

(* Hidden defaults for "?" link offsets, stable per link name. *)
let default_time_offset name =
  1e-9 *. float_of_int (200 + (Truth.stable_hash ("toff:" ^ name) mod 600))

let default_energy_offset name =
  1e-12 *. float_of_int (300 + (Truth.stable_hash ("eoff:" ^ name) mod 900))

let channel_float (e : Model.element) key default =
  match Model.attr_quantity e key with
  | Some q -> Xpdl_units.Units.value q
  | None -> default

let link_of (ic : Model.element) : link option =
  let ident = Option.value ~default:"link" (Model.identifier ic) in
  let channels = Model.elements_of_kind Schema.Channel ic in
  (* aggregate over channels: a transfer uses one direction; take the
     first channel as representative (they are symmetric in our
     models) *)
  let bw, toff, epb, eoff =
    match channels with
    | [] ->
        ( channel_float ic "max_bandwidth" 1e9,
          default_time_offset ident,
          10e-12,
          default_energy_offset ident )
    | ch :: _ ->
        ( channel_float ch "max_bandwidth" 1e9,
          (if Model.attr_is_unknown ch "time_offset_per_message" then default_time_offset ident
           else channel_float ch "time_offset_per_message" (default_time_offset ident)),
          channel_float ch "energy_per_byte" 10e-12,
          if Model.attr_is_unknown ch "energy_offset_per_message" then default_energy_offset ident
          else channel_float ch "energy_offset_per_message" (default_energy_offset ident) )
  in
  if bw <= 0. then None
  else
    Some
      {
        link_ident = ident;
        head = Model.attr_string ic "head";
        tail = Model.attr_string ic "tail";
        bandwidth = bw;
        time_offset = toff;
        energy_per_byte = epb;
        energy_offset = eoff;
      }

(** Sum of declared [static_power] over all hardware components: the
    paper's synthesized static power of the root (Sec. III-D).  {!create}
    sums the same terms, in the same order, in its own walk. *)
let total_static_power (root : Model.element) =
  Model.hardware_fold
    (fun acc (e : Model.element) ->
      if Schema.is_hardware e.kind then
        match Model.attr_quantity e "static_power" with
        | Some q -> acc +. Xpdl_units.Units.value q
        | None -> acc
      else acc)
    0. root

let mean_memory_costs mems =
  let es, ts =
    List.fold_left
      (fun (es, ts) m ->
        ( (match Model.attr_quantity m "energy_per_access" with
          | Some q -> Xpdl_units.Units.value q :: es
          | None -> es),
          match Model.attr_quantity m "latency" with
          | Some q -> Xpdl_units.Units.value q :: ts
          | None -> ts ))
      ([], []) mems
  in
  let mean default = function
    | [] -> default
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  (mean 5e-9 es, mean 60e-9 ts)

(* The path identifier of the core at [depth]: its ancestors' segments
   and its own joined by '/', leading empty segments dropped. *)
let core_path (segs : string array) depth =
  let first = ref 0 in
  while !first < depth && String.length segs.(!first) = 0 do
    incr first
  done;
  let len = ref (depth - !first) in
  for k = !first to depth do
    len := !len + String.length segs.(k)
  done;
  let b = Bytes.create !len in
  let pos = ref 0 in
  for k = !first to depth do
    if k > !first then begin
      Bytes.unsafe_set b !pos '/';
      incr pos
    end;
    Bytes.blit_string segs.(k) 0 b !pos (String.length segs.(k));
    pos := !pos + String.length segs.(k)
  done;
  Bytes.unsafe_to_string b

(** Build a simulated machine from a composed model.  [seed] fixes the
    measurement-noise stream; [noise_sigma] is the relative noise of the
    simulated power meter (2% by default, a realistic external-meter
    figure).

    One preorder walk collects everything the machine reads: the cores
    and the static power of the physical hardware (metadata subtrees
    skipped), and, anywhere in the tree, the interconnects, the memories
    and the power-model elements. *)
let create ?(seed = 42) ?(noise_sigma = 0.02) (model : Model.element) : t =
  let cores = ref [] and links = ref [] and mems = ref [] and parts = ref [] in
  let static_power = ref 0. in
  (* cores seen so far: an element without name or id is named after
     its kind and this count *)
  let counter = ref 0 in
  (* identifier segments of the current hardware ancestry, by depth *)
  let segs = ref (Array.make 16 "") in
  let rec walk depth hardware (e : Model.element) =
    let hardware = hardware && not (Model.is_metadata_subtree e.kind) in
    if hardware then begin
      if depth = Array.length !segs then segs := Array.append !segs (Array.make depth "");
      !segs.(depth) <-
        (match Model.identifier e with
        | Some i -> i
        | None -> Schema.tag_of_kind e.kind ^ string_of_int !counter);
      (if Schema.is_hardware e.kind then
         match Model.attr_quantity e "static_power" with
         | Some q -> static_power := !static_power +. Xpdl_units.Units.value q
         | None -> ());
      if Schema.equal_kind e.kind Schema.Core then begin
        incr counter;
        let hz =
          match Model.attr_quantity e "frequency" with
          | Some q -> Xpdl_units.Units.value q
          | None -> 1.0e9
        in
        cores :=
          {
            core_ident = core_path !segs depth;
            core_element = e;
            hz;
            nominal_hz = hz;
            isa = Model.attr_string e "isa";
            core_offline = false;
          }
          :: !cores
      end
    end;
    (match e.kind with
    | Schema.Interconnect -> links := e :: !links
    | Schema.Memory -> mems := e :: !mems
    | kind -> if Power.is_part kind then parts := e :: !parts);
    walk_list (depth + 1) hardware e.children
  and walk_list depth hardware = function
    | [] -> ()
    | c :: rest ->
        walk depth hardware c;
        walk_list depth hardware rest
  in
  walk 0 true model;
  let power = Power.of_parts ~root:model (List.rev !parts) in
  (* the first ISA seeds the truth; later ISAs' concrete entries
     override it, and an instruction's first declared latency, in model
     order, wins *)
  let truth, later =
    match power.pm_isas with
    | isa :: rest -> (Truth.of_isa ~noise_sigma isa, rest)
    | [] -> (Truth.synthetic ~noise_sigma (), [])
  in
  List.iter
    (fun isa ->
      let t2 = Truth.of_isa ~noise_sigma isa in
      Hashtbl.iter (Hashtbl.replace truth.Truth.base_energy) t2.Truth.base_energy;
      Hashtbl.iter (Hashtbl.replace truth.Truth.tables) t2.Truth.tables)
    later;
  let latencies = Hashtbl.create 64 in
  List.iter
    (fun (isa : Power.isa) ->
      List.iter
        (fun (i : Power.instruction) ->
          match i.in_latency with
          | Some l when not (Hashtbl.mem latencies i.in_name) -> Hashtbl.add latencies i.in_name l
          | _ -> ())
        isa.isa_instructions)
    power.pm_isas;
  let mem_access_energy, mem_access_time = mean_memory_costs (List.rev !mems) in
  {
    model;
    cores = Array.of_list (List.rev !cores);
    links = Array.of_list (List.filter_map link_of (List.rev !links));
    truth;
    static_power = !static_power;
    mem_access_energy;
    mem_access_time;
    rng = Rng.create ~seed;
    faults = None;
    latencies;
    power;
  }

let core_count t = Array.length t.cores

let power_model t model = if t.model == model then t.power else Power.of_element model

(** {1 Fault injection} *)

let inject_faults t plan = t.faults <- Some plan
let faults t = t.faults

(* Pass a meter reading through the attached fault plan (identity when
   none).  After each intercepted read, honor a pending core-offline
   request — the plan decides when, the machine decides which core. *)
let meter t ~target v =
  match t.faults with
  | None -> v
  | Some plan ->
      let deliver () =
        match Faults.pending_offline plan with
        | Some pick when Array.length t.cores > 0 ->
            t.cores.(pick mod Array.length t.cores).core_offline <- true
        | _ -> ()
      in
      let v' =
        try Faults.observe plan ~target v
        with e ->
          deliver ();
          raise e
      in
      deliver ();
      v'

let rec suffix_equal s ~off ident k =
  k >= String.length ident || (s.[off + k] = ident.[k] && suffix_equal s ~off ident (k + 1))

(* [ident] names [core_ident] in full or as the component after its last
   '/'; compared in place, so a lookup allocates nothing per core. *)
let names_core core_ident ident =
  let n = String.length core_ident and m = String.length ident in
  String.equal core_ident ident
  || (m > 0 && m < n
     && core_ident.[n - m - 1] = '/'
     && (not (String.contains ident '/'))
     && suffix_equal core_ident ~off:(n - m) ident 0)

let find_core t ident =
  let n = Array.length t.cores in
  let rec scan i =
    if i >= n then None
    else if names_core t.cores.(i).core_ident ident then Some t.cores.(i)
    else scan (i + 1)
  in
  scan 0

let find_link t ident =
  let n = Array.length t.links in
  let rec scan i =
    if i >= n then None
    else if String.equal t.links.(i).link_ident ident then Some t.links.(i)
    else scan (i + 1)
  in
  scan 0

(** Set the clock of every core whose path contains [within] (or all cores
    if [within] is [None]) — the effect of a DVFS power-state switch. *)
let set_frequency ?within t hz =
  Array.iter
    (fun c ->
      let applies =
        match within with
        | None -> true
        | Some sub ->
            let len = String.length sub in
            let cl = String.length c.core_ident in
            let rec contains i =
              i + len <= cl && (String.equal (String.sub c.core_ident i len) sub || contains (i + 1))
            in
            contains 0
      in
      if applies then c.hz <- hz)
    t.cores

(** Return every core to its nominal clock, undoing {!set_frequency}. *)
let restore_nominal_clocks t = Array.iter (fun c -> c.hz <- c.nominal_hz) t.cores

(** {1 Workload execution} *)

(** A workload is a bag of instruction executions plus memory traffic. *)
type workload = {
  instructions : (string * int) list;  (** instruction name → count *)
  memory_accesses : int;  (** cache-missing accesses *)
  parallel_fraction : float;  (** Amdahl fraction that scales with cores *)
}

let workload ?(memory_accesses = 0) ?(parallel_fraction = 1.0) instructions =
  { instructions; memory_accesses; parallel_fraction }

(** Result of a run, as observed through the simulated power meter. *)
type measurement = {
  elapsed : float;  (** s, wall-clock of the run *)
  dynamic_energy : float;  (** J attributed to the computation *)
  total_energy : float;  (** J including the machine's static share *)
  average_power : float;  (** W over the run *)
}

(* True (noise-free) serial cost of a workload on [core]. *)
let true_serial_cost t (core : core) (w : workload) =
  let cycles, energy =
    List.fold_left
      (fun (cy, en) (name, count) ->
        let lat = Truth.latency_cycles ~declared:(Hashtbl.find_opt t.latencies name) name in
        ( cy +. (float_of_int count *. float_of_int lat),
          en +. (float_of_int count *. Truth.energy t.truth ~name ~hz:core.hz) ))
      (0., 0.) w.instructions
  in
  let time = (cycles /. core.hz) +. (float_of_int w.memory_accesses *. t.mem_access_time) in
  let energy = energy +. (float_of_int w.memory_accesses *. t.mem_access_energy) in
  (time, energy)

(** Execute [w] on the core identified by [core] (default: first core).
    [cores_used] spreads the parallel fraction over that many identical
    cores (Amdahl).  The returned measurement includes seeded noise. *)
let run ?core ?(cores_used = 1) t (w : workload) : measurement =
  let c =
    match core with
    | Some ident -> (
        match find_core t ident with
        | Some c -> c
        | None -> Fmt.invalid_arg "Machine.run: no core %S" ident)
    | None ->
        if Array.length t.cores = 0 then invalid_arg "Machine.run: machine has no cores";
        t.cores.(0)
  in
  if c.core_offline then raise (Faults.Core_offline c.core_ident);
  let serial_time, energy = true_serial_cost t c w in
  let p = Float.max 1. (float_of_int cores_used) in
  let time =
    (serial_time *. (1. -. w.parallel_fraction)) +. (serial_time *. w.parallel_fraction /. p)
  in
  let noise = Rng.noise_factor t.rng ~sigma:t.truth.Truth.noise_sigma in
  let noise_e = Rng.noise_factor t.rng ~sigma:t.truth.Truth.noise_sigma in
  let elapsed = time *. noise in
  let dynamic_energy = meter t ~target:("run:" ^ c.core_ident) (energy *. noise_e) in
  let total_energy = dynamic_energy +. (t.static_power *. elapsed) in
  { elapsed; dynamic_energy; total_energy; average_power = total_energy /. Float.max 1e-12 elapsed }

(** Transfer [bytes] over link [link]: (time, energy), with noise. *)
let transfer t ~link ~bytes : float * float =
  match find_link t link with
  | None -> Fmt.invalid_arg "Machine.transfer: no link %S" link
  | Some l ->
      let time = l.time_offset +. (float_of_int bytes /. l.bandwidth) in
      let energy = l.energy_offset +. (float_of_int bytes *. l.energy_per_byte) in
      ( time *. Rng.noise_factor t.rng ~sigma:t.truth.Truth.noise_sigma,
        meter t
          ~target:("transfer:" ^ l.link_ident)
          (energy *. Rng.noise_factor t.rng ~sigma:t.truth.Truth.noise_sigma) )

(** Sample the external power meter while the machine idles for
    [duration] seconds: static power plus meter noise. *)
let sample_idle_power t ~duration:_ =
  meter t ~target:"idle" (t.static_power *. Rng.noise_factor t.rng ~sigma:t.truth.Truth.noise_sigma)

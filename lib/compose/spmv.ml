(** The sparse matrix–vector multiply case study (Sec. II, ref. [3]).

    Three implementation variants of one SpMV component:

    - [cpu_csr]: multithreaded CSR on the host cores; requires a CPU
      sparse BLAS (MKL).
    - [cpu_dense]: dense MV on the host — prices every element but with
      regular, vectorizable accesses; wins at very high density.
    - [gpu_csr]: CUSPARSE-style CSR on the CUDA device, paying the PCIe
      transfer of the matrix and vectors; requires CUDA + CUSPARSE and a
      CUDA-capable device in the platform model.

    Selectability comes from the platform model (installed software,
    device presence); ranking comes from analytic cost estimates computed
    {e only} from platform metadata exposed by the query API — core
    counts, clock frequencies, effective link bandwidth — exactly the
    information flow the paper describes.  Problem parameters: [rows],
    [cols], [density], and [iterations] — the number of SpMV sweeps an
    iterative solver performs on the same matrix, over which the GPU
    amortizes its one-time PCIe transfer. *)

open Compose

let iterations_of_ctx ctx =
  int_of_float (Option.value ~default:1. (problem_param ctx "iterations"))

let spmv_of_ctx ctx =
  Xpdl_simhw.Kernels.spmv
    ~rows:(int_of_float (problem_param_exn ctx "rows"))
    ~cols:(int_of_float (Option.value ~default:(problem_param_exn ctx "rows") (problem_param ctx "cols")))
    ~density:(problem_param_exn ctx "density") ()

(* Host CPU facts from the runtime model: core count and max frequency of
   cores outside any device.  A core is inside a device when its
   preorder index falls in the device's subtree span. *)
let host_facts ctx =
  let q = ctx.query in
  let devices = Xpdl_query.Query.devices q in
  let in_device (c : Xpdl_query.Query.element) =
    List.exists
      (fun (d : Xpdl_query.Query.element) ->
        Xpdl_toolchain.Ir.(d.n_index <= c.n_index && c.n_index < d.n_subtree_end))
      devices
  in
  let host_cores =
    List.filter
      (fun c -> not (in_device c))
      (Xpdl_query.Query.hardware_of_kind q Xpdl_core.Schema.Core)
  in
  let freq =
    List.fold_left
      (fun acc c ->
        match Xpdl_query.Query.get c "frequency" with
        | Some (Xpdl_toolchain.Ir.VQty (v, _)) -> Float.max acc v
        | _ -> acc)
      0. host_cores
  in
  (List.length host_cores, if freq > 0. then freq else 2e9)

let gpu_facts ctx =
  let q = ctx.query in
  List.find_map
    (fun d ->
      let cores = Xpdl_query.Query.count_cores ~within:d q in
      if cores = 0 then None
      else
        let freq =
          List.fold_left
            (fun acc c ->
              match Xpdl_query.Query.get c "frequency" with
              | Some (Xpdl_toolchain.Ir.VQty (v, _)) -> Float.max acc v
              | _ -> acc)
            0.
            (Xpdl_query.Query.hardware_of_kind ~within:d q Xpdl_core.Schema.Core)
        in
        Some (d, cores, if freq > 0. then freq else 700e6))
    (Xpdl_query.Query.devices q)

(* The PCIe link reaching the device, if modeled. *)
let gpu_link ctx =
  let q = ctx.query in
  List.find_map
    (fun (ic : Xpdl_query.Query.element) ->
      match Xpdl_query.Query.ident ic with
      | Some ident -> (
          match Xpdl_query.Query.link_bandwidth q ident with
          | Some bw -> Some (ident, bw)
          | None -> None)
      | None -> None)
    (Xpdl_query.Query.all_of_kind q Xpdl_core.Schema.Interconnect)

(* --- metadata-driven workload pricing ------------------------------

   The composition tool predicts a variant's execution time from the
   platform description alone: per-instruction latencies from the model's
   <instructions> tables, memory latencies from the <memory> descriptors,
   clock frequencies and core counts from the hardware tree.  This is the
   same information the simulated machine is built from, so a good
   prediction tracks (noisy) measurements — which is precisely why tuned
   selection works in the case study. *)

let instruction_latency ctx name ~default =
  let q = ctx.query in
  List.find_map
    (fun (inst : Xpdl_query.Query.element) ->
      match Xpdl_query.Query.ident inst with
      | Some n when String.equal n name -> Xpdl_query.Query.get_int inst "latency"
      | _ -> None)
    (Xpdl_query.Query.all_of_kind q Xpdl_core.Schema.Instruction)
  |> Option.value ~default

(* mean declared memory latency: the machine prices a cache-missing
   access at this figure *)
let mean_memory_latency ctx =
  let lats =
    List.filter_map
      (fun m -> Xpdl_query.Query.get_float m "latency")
      (Xpdl_query.Query.all_of_kind ctx.query Xpdl_core.Schema.Memory)
  in
  match lats with
  | [] -> 60e-9
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(** Predicted wall-clock of a workload on [cores] cores at [hz]. *)
let price ctx (w : Xpdl_simhw.Machine.workload) ~hz ~cores =
  let cycles =
    List.fold_left
      (fun acc (name, count) ->
        acc +. (float_of_int count *. float_of_int (instruction_latency ctx name ~default:4)))
      0. w.Xpdl_simhw.Machine.instructions
  in
  let serial =
    (cycles /. hz)
    +. (float_of_int w.Xpdl_simhw.Machine.memory_accesses *. mean_memory_latency ctx)
  in
  let pf = w.Xpdl_simhw.Machine.parallel_fraction in
  (serial *. (1. -. pf)) +. (serial *. pf /. float_of_int (max 1 cores))

(** {1 Variants} *)

let cpu_csr : variant =
  {
    v_name = "cpu_csr";
    v_requires = [ "MKL_11.0" ];
    v_selectable = (fun _ -> true);
    v_estimate =
      (fun ctx ->
        let m = spmv_of_ctx ctx in
        let cores, hz = host_facts ctx in
        let w =
          Xpdl_simhw.Kernels.repeat (iterations_of_ctx ctx) (Xpdl_simhw.Kernels.spmv_csr_cpu m)
        in
        Some (price ctx w ~hz ~cores));
    v_run =
      (fun ctx ->
        let m = spmv_of_ctx ctx in
        let cores, _ = host_facts ctx in
        Xpdl_simhw.Machine.run ~cores_used:(max 1 cores) ctx.machine
          (Xpdl_simhw.Kernels.repeat (iterations_of_ctx ctx) (Xpdl_simhw.Kernels.spmv_csr_cpu m)));
  }

let cpu_dense : variant =
  {
    v_name = "cpu_dense";
    v_requires = [];
    v_selectable =
      (fun ctx ->
        (* dense storage of the full matrix must fit in modeled memory *)
        let m = spmv_of_ctx ctx in
        let bytes = float_of_int m.rows *. float_of_int m.cols *. 8. in
        bytes <= Xpdl_query.Query.total_memory_bytes ctx.query);
    v_estimate =
      (fun ctx ->
        let m = spmv_of_ctx ctx in
        let cores, hz = host_facts ctx in
        let w =
          Xpdl_simhw.Kernels.repeat (iterations_of_ctx ctx) (Xpdl_simhw.Kernels.mv_dense_cpu m)
        in
        Some (price ctx w ~hz ~cores));
    v_run =
      (fun ctx ->
        let m = spmv_of_ctx ctx in
        let cores, _ = host_facts ctx in
        Xpdl_simhw.Machine.run ~cores_used:(max 1 cores) ctx.machine
          (Xpdl_simhw.Kernels.repeat (iterations_of_ctx ctx) (Xpdl_simhw.Kernels.mv_dense_cpu m)));
  }

let gpu_csr : variant =
  {
    v_name = "gpu_csr";
    v_requires = [ "CUDA_6.0"; "CUSPARSE_6.0" ];
    v_selectable = (fun ctx -> gpu_facts ctx <> None);
    v_estimate =
      (fun ctx ->
        match (gpu_facts ctx, gpu_link ctx) with
        | Some (_, cores, hz), Some (_, bw) ->
            let m = spmv_of_ctx ctx in
            (* the matrix crosses the link once per solve; the kernel runs
               once per sweep *)
            let xfer = float_of_int (Xpdl_simhw.Kernels.spmv_transfer_bytes m) /. bw in
            let w =
              Xpdl_simhw.Kernels.repeat (iterations_of_ctx ctx)
                (Xpdl_simhw.Kernels.spmv_csr_gpu m)
            in
            Some (xfer +. price ctx w ~hz ~cores)
        | _ -> None);
    v_run =
      (fun ctx ->
        match (gpu_facts ctx, gpu_link ctx) with
        | Some (_, cores, _), Some (link, _) ->
            let m = spmv_of_ctx ctx in
            let xfer_t, xfer_e =
              Xpdl_simhw.Machine.transfer ctx.machine ~link
                ~bytes:(Xpdl_simhw.Kernels.spmv_transfer_bytes m)
            in
            let gpu_core =
              (* run on a device core: any core whose path is inside a device *)
              Array.find_opt
                (fun (c : Xpdl_simhw.Machine.core) ->
                  match Xpdl_core.Model.attr_string c.core_element "isa" with
                  | Some "ptx_isa" -> true
                  | _ -> false)
                ctx.machine.Xpdl_simhw.Machine.cores
            in
            let meas =
              Xpdl_simhw.Machine.run
                ?core:(Option.map (fun c -> c.Xpdl_simhw.Machine.core_ident) gpu_core)
                ~cores_used:cores ctx.machine
                (Xpdl_simhw.Kernels.repeat (iterations_of_ctx ctx)
                   (Xpdl_simhw.Kernels.spmv_csr_gpu m))
            in
            {
              meas with
              Xpdl_simhw.Machine.elapsed = meas.Xpdl_simhw.Machine.elapsed +. xfer_t;
              dynamic_energy = meas.Xpdl_simhw.Machine.dynamic_energy +. xfer_e;
              total_energy = meas.Xpdl_simhw.Machine.total_energy +. xfer_e;
            }
        | _ -> Fmt.failwith "gpu_csr: platform model has no CUDA device or link");
  }

(** The SpMV component of the case study. *)
let component : component = { c_name = "spmv"; c_variants = [ cpu_csr; cpu_dense; gpu_csr ] }

(** Convenience: a context for an SpMV solve of the given shape.
    [iterations] is the number of solver sweeps over the same matrix. *)
let context ?(iterations = 1) ~query ~machine ~rows ~density () : context =
  {
    query;
    machine;
    problem =
      [
        ("rows", float_of_int rows);
        ("density", density);
        ("iterations", float_of_int iterations);
      ];
  }

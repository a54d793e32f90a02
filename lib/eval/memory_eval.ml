open Lz_kernel
open Lightzone

type report = {
  app : string;
  baseline_mib : float;
  fragmentation_pct : float;
  pan_tables_pct : float;
  ttbr_tables_pct : float;
  paper_fragmentation_pct : float;
  paper_pan_pct : float;
  paper_ttbr_pct : float;
}

let code_va = 0x400000
let stack_va = 0x7F0000000000

(* Build a LightZone process whose protected layout has [domains]
   regions of [domain_bytes] spread over a resident set of
   [resident_pages]; return table frames used. *)
let table_frames cm ~scalable ~domains ~domain_pages ~resident_pages =
  let machine = Machine.create ~cost:cm () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  let data_base = 0x10000000 in
  ignore
    (Kernel.map_anon kernel proc ~at:data_base
       ~len:((resident_pages + (domains * domain_pages)) * 4096) Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:scalable
      ~insn_san:(if scalable then 1 else 2) ~entry:code_va ~sp:stack_va
      kernel proc
  in
  let prot_base = data_base + (resident_pages * 4096) in
  if scalable then
    for d = 0 to domains - 1 do
      let pgt = Api.lz_alloc t in
      if d < Gate.max_gates then Api.lz_map_gate_pgt t ~pgt ~gate:d;
      Api.lz_prot t ~addr:(prot_base + (d * domain_pages * 4096))
        ~len:(domain_pages * 4096) ~pgt ~perm:(Perm.read lor Perm.write)
    done
  else
    Api.lz_prot t ~addr:prot_base ~len:(domains * domain_pages * 4096)
      ~pgt:Perm.pgt_all ~perm:(Perm.read lor Perm.write lor Perm.user);
  (* Reach steady state: every page table maps the whole unprotected
     resident set (what a long-running worker converges to), and each
     domain's pages live in their attached table. *)
  let touch pgt vas =
    Kmod.set_current_pgt t pgt;
    List.iter (fun va -> Kmod.prefault t ~va ~access:Lz_mem.Mmu.Read) vas
  in
  let resident =
    List.init resident_pages (fun i -> data_base + (i * 4096))
  in
  if scalable then
    for d = 0 to domains - 1 do
      let domain_vas =
        List.init domain_pages (fun i ->
            prot_base + (((d * domain_pages) + i) * 4096))
      in
      touch (d + 1) (resident @ domain_vas)
    done
  else begin
    touch 0 resident;
    List.iter
      (fun va -> Kmod.prefault t ~va ~access:Lz_mem.Mmu.Read)
      (List.init (domains * domain_pages) (fun i -> prot_base + (i * 4096)))
  end;
  (match t.Kmod.terminated with
  | Some why -> failwith ("memory accounting: " ^ why)
  | None -> ());
  Kmod.table_memory_frames t

let pct x y = 100. *. float_of_int x /. float_of_int y

let report ~app ~baseline_mib ~domains ~domain_pages ~resident_pages
    ~frag_pages ~paper cm =
  let pan = table_frames cm ~scalable:false ~domains ~domain_pages
      ~resident_pages in
  let ttbr = table_frames cm ~scalable:true ~domains ~domain_pages
      ~resident_pages in
  let total_pages = resident_pages + (domains * domain_pages) in
  let pf, pp, pt = paper in
  { app;
    baseline_mib;
    fragmentation_pct = pct frag_pages total_pages;
    pan_tables_pct = pct pan total_pages;
    ttbr_tables_pct = pct ttbr total_pages;
    paper_fragmentation_pct = pf;
    paper_pan_pct = pp;
    paper_ttbr_pct = pt }

(* Nginx: ~21.7 MiB resident (~5,500 pages), 128 keys, each key (a
   176-byte schedule) alone in a 4 KiB page: 128 pages of
   fragmentation padding. Scaled 1:4 to keep the bench quick. *)
let nginx cm =
  report ~app:"Nginx (per-key domains)" ~baseline_mib:21.7 ~domains:32
    ~domain_pages:1 ~resident_pages:1400 ~frag_pages:30
    ~paper:(1.6, 1.2, 22.2) cm

(* MySQL: 512.9 MiB resident; 32 connection stacks of 16 pages each +
   the HP_PTRS heap under PAN. Scaled 1:16. *)
let mysql cm =
  report ~app:"MySQL (stacks + HP_PTRS)" ~baseline_mib:512.9 ~domains:32
    ~domain_pages:16 ~resident_pages:8000 ~frag_pages:0
    ~paper:(0.0, 0.2, 9.8) cm

(* NVM: 309 MiB of 2 MiB buffers; huge pages mean negligible PAN
   tables; scalable tables dominate. Scaled 1:8 (16 buffers of 512
   pages). *)
let nvm cm =
  report ~app:"NVM (2 MiB buffers)" ~baseline_mib:309.0 ~domains:16
    ~domain_pages:512 ~resident_pages:800 ~frag_pages:0
    ~paper:(0.0, 0.0, 12.1) cm

let all cm = [ nginx cm; mysql cm; nvm cm ]

(* Copy-on-write frame-store accounting: fork a fleet off one warm
   image and count what the store actually holds versus what [forks+1]
   independent machines would. *)

type cow_report = {
  forks : int;
  churned : int;
  logical_frames : int;
  shared_frames : int;
  private_frames : int;
  store_slots : int;
  unshares : int;
  dirty_mean : float;
  dedup_factor : float;
}

let frame_bytes = 4096

let cow cm =
  let forks = 16 and churned = 4 in
  let r =
    Switch_bench.prepare cm ~env:Switch_bench.Host ~domains:128 ~n:300
  in
  let z = r.Switch_bench.t in
  let image = Lz_snap.Snapshot.capture z in
  let fleet = Array.init forks (fun _ -> Lz_snap.Snapshot.fork z image) in
  for i = 0 to churned - 1 do
    Switch_bench.run_slice fleet.(i)
  done;
  let dirty =
    Array.init churned (fun i -> Lz_snap.Snapshot.dirty_pages fleet.(i) image)
  in
  let dirty_mean =
    float_of_int (Array.fold_left ( + ) 0 dirty) /. float_of_int churned
  in
  (* Shared/private split read from a churned fork's view — that is
     where private (unshared) frames accumulate; the source stayed
     read-only. *)
  let st = Lz_mem.Phys.stats fleet.(0).Lightzone.Kmod.machine.Machine.phys in
  Lz_snap.Snapshot.release z image;
  { forks;
    churned;
    logical_frames = st.Lz_mem.Phys.allocated;
    shared_frames = st.Lz_mem.Phys.shared;
    private_frames = st.Lz_mem.Phys.private_;
    store_slots = st.Lz_mem.Phys.store_slots;
    unshares = st.Lz_mem.Phys.unshares;
    dirty_mean;
    dedup_factor =
      float_of_int ((forks + 1) * st.Lz_mem.Phys.allocated)
      /. float_of_int (max 1 st.Lz_mem.Phys.store_slots) }

let cow_saved_mib r =
  float_of_int
    ((((r.forks + 1) * r.logical_frames) - r.store_slots) * frame_bytes)
  /. (1024. *. 1024.)

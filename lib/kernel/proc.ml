type t = {
  pid : int;
  machine : Machine.t;
  mutable vmas : Vma.t list;
  root : int;
  asid : int;
  output : Buffer.t;
  mutable exit_code : int option;
  mutable killed : string option;
  mutable fault_count : int;
  mutable mmap_hint : int;
  mutable on_map : (va:int -> pa:int -> prot:Vma.prot -> unit) option;
  mutable on_unmap : (va:int -> unit) option;
  mutable on_protect : (va:int -> prot:Vma.prot -> unit) option;
}

let create machine ~pid ~asid =
  { pid;
    machine;
    vmas = [];
    root = Lz_mem.Stage1.create_root machine.Machine.phys;
    asid;
    output = Buffer.create 256;
    exit_code = None;
    killed = None;
    fault_count = 0;
    mmap_hint = 0x500000000;
    on_map = None;
    on_unmap = None;
    on_protect = None }

let find_vma t addr = List.find_opt (fun v -> Vma.contains v addr) t.vmas

let add_vma t vma =
  if List.exists (fun v -> Vma.overlaps v ~start:vma.Vma.start ~len:vma.len)
       t.vmas
  then invalid_arg "Proc.add_vma: overlapping VMA";
  t.vmas <- vma :: t.vmas

let remove_vma_range t ~start ~len =
  let inside v = v.Vma.start >= start && Vma.end_ v <= start + len in
  let gone, kept = List.partition inside t.vmas in
  t.vmas <- kept;
  gone

let mapped_pa t ~va =
  match Lz_mem.Stage1.walk t.machine.Machine.phys ~root:t.root ~va with
  | Ok w -> Some w.Lz_mem.Stage1.pa
  | Error _ -> None

type state = {
  st_vmas : Vma.t list;
  st_exit_code : int option;
  st_killed : string option;
  st_fault_count : int;
  st_mmap_hint : int;
  st_output : string;
}

(* mprotect rewrites a VMA's [prot] in place, so an image holds its
   own copies and hands the process fresh ones. *)
let copy_vmas = List.map (fun (v : Vma.t) -> { v with Vma.prot = v.Vma.prot })

let capture t =
  { st_vmas = copy_vmas t.vmas; st_exit_code = t.exit_code;
    st_killed = t.killed; st_fault_count = t.fault_count;
    st_mmap_hint = t.mmap_hint; st_output = Buffer.contents t.output }

let restore t s =
  t.vmas <- copy_vmas s.st_vmas;
  t.exit_code <- s.st_exit_code;
  t.killed <- s.st_killed;
  t.fault_count <- s.st_fault_count;
  t.mmap_hint <- s.st_mmap_hint;
  Buffer.clear t.output;
  Buffer.add_string t.output s.st_output

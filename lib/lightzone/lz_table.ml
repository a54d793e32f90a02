open Lz_mem

type t = {
  id : int;
  asid : int;
  root_real : int;
  root_fake : int;
  phys : Phys.t;
  fake : Fake_phys.t;
  s2_root : int;
  mutable table_frames : int;
}

let table_ro = Stage2.{ read = true; write = false; exec = false }

let new_table_frame t =
  let real = Phys.alloc_frame t.phys in
  let fake = Fake_phys.assign t.fake ~real in
  Stage2.map_page t.phys ~root:t.s2_root ~ipa:fake ~pa:real table_ro;
  t.table_frames <- t.table_frames + 1;
  (real, fake)

let create phys fake ~s2_root ~id ~asid =
  let t =
    { id; asid; root_real = 0; root_fake = 0; phys; fake; s2_root;
      table_frames = 0 }
  in
  let real = Phys.alloc_frame phys in
  let root_fake = Fake_phys.assign fake ~real in
  Stage2.map_page phys ~root:s2_root ~ipa:root_fake ~pa:real table_ro;
  { t with root_real = real; root_fake; table_frames = 1 }

let ttbr t = Mmu.ttbr_value ~root:t.root_fake ~asid:t.asid

let index ~level va = (va lsr (39 - (9 * level))) land 0x1FF

(* Descend via real frame addresses, writing fake addresses into the
   descriptors the hardware walker (and the process) will see. *)
let rec descend t ~table_real ~level ~va =
  if level = 3 then table_real + (8 * index ~level va)
  else
    let pte_addr = table_real + (8 * index ~level va) in
    let pte = Phys.read64 t.phys pte_addr in
    let next_real =
      if Pte.is_table ~level pte then
        match Fake_phys.real_of_fake t.fake (Pte.out_addr pte) with
        | Some real -> real
        | None -> failwith "Lz_table: descriptor with unknown fake address"
      else begin
        let real, fake = new_table_frame t in
        Phys.write64 t.phys pte_addr (Pte.make_s1_table ~pa:fake);
        real
      end
    in
    descend t ~table_real:next_real ~level:(level + 1) ~va

let map_page t ~va ~fake_pa attrs =
  let pte_addr = descend t ~table_real:t.root_real ~level:0 ~va in
  Phys.write64 t.phys pte_addr (Pte.make_s1_page ~pa:fake_pa attrs)

let rec leaf_pte_addr t ~table_real ~level ~va =
  let pte_addr = table_real + (8 * index ~level va) in
  if level = 3 then
    let pte = Phys.read64 t.phys pte_addr in
    if Pte.valid pte then Some pte_addr else None
  else
    let pte = Phys.read64 t.phys pte_addr in
    if Pte.is_table ~level pte then
      match Fake_phys.real_of_fake t.fake (Pte.out_addr pte) with
      | Some real -> leaf_pte_addr t ~table_real:real ~level:(level + 1) ~va
      | None -> None
    else None

(* Fake address of the level-3 table page whose entries translate
   [va] — the page a PTE-poking attack would try to alias and write.
   Table frames are stage-2-mapped read-only, so handing this address
   to an adversarial scenario must still end in a stage-2 permission
   fault. *)
let rec last_level t ~table_real ~level ~va =
  if level = 3 then Fake_phys.fake_of_real t.fake table_real
  else
    let pte = Phys.read64 t.phys (table_real + (8 * index ~level va)) in
    if Pte.is_table ~level pte then
      match Fake_phys.real_of_fake t.fake (Pte.out_addr pte) with
      | Some real -> last_level t ~table_real:real ~level:(level + 1) ~va
      | None -> None
    else None

let last_level_table_fake t ~va =
  last_level t ~table_real:t.root_real ~level:0 ~va

let unmap t ~va =
  match leaf_pte_addr t ~table_real:t.root_real ~level:0 ~va with
  | Some a -> Phys.write64 t.phys a 0
  | None -> ()

let set_attrs t ~va attrs =
  match leaf_pte_addr t ~table_real:t.root_real ~level:0 ~va with
  | Some a ->
      let pte = Phys.read64 t.phys a in
      Phys.write64 t.phys a (Pte.with_s1_attrs pte attrs);
      true
  | None -> false

let mapped t ~va =
  leaf_pte_addr t ~table_real:t.root_real ~level:0 ~va <> None

(* Children are freed in descriptor-index order; zero descriptors are
   never tables, so only the nonzero words are visited. *)
let rec free_tables t ~table_real ~level =
  if level < 3 then
    List.iter
      (fun pte ->
        if Pte.is_table ~level pte then
          match Fake_phys.real_of_fake t.fake (Pte.out_addr pte) with
          | Some real -> free_tables t ~table_real:real ~level:(level + 1)
          | None -> ())
      (Phys.nonzero_words t.phys table_real);
  Stage2.unmap t.phys ~root:t.s2_root
    ~ipa:(match Fake_phys.fake_of_real t.fake table_real with
         | Some f -> f
         | None -> table_real);
  Phys.free_frame t.phys table_real

let destroy t = free_tables t ~table_real:t.root_real ~level:0

#include "sim/pipeline.hpp"

#include <stdexcept>

#include "isa/encoding.hpp"

namespace emask::sim {
namespace {

using isa::Opcode;

/// Result of executing an instruction in EX.
struct ExOutput {
  std::uint32_t result = 0;  // ALU result / memory address / link value
  bool control_taken = false;
  std::uint32_t target = 0;  // next pc when control_taken
};

ExOutput execute(Opcode op, std::int32_t imm, std::uint32_t pc,
                 std::uint32_t a, std::uint32_t b) {
  ExOutput out;
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  const auto simm = imm;
  const auto zimm = static_cast<std::uint32_t>(imm) & 0xFFFFu;
  switch (op) {
    case Opcode::kAddu: out.result = a + b; break;
    case Opcode::kSubu: out.result = a - b; break;
    case Opcode::kAnd: out.result = a & b; break;
    case Opcode::kOr: out.result = a | b; break;
    case Opcode::kXor: out.result = a ^ b; break;
    case Opcode::kNor: out.result = ~(a | b); break;
    case Opcode::kSlt: out.result = (sa < sb) ? 1u : 0u; break;
    case Opcode::kSltu: out.result = (a < b) ? 1u : 0u; break;
    // Variable shifts: rd = rt shifted by rs (a = rs value, b = rt value).
    case Opcode::kSllv: out.result = b << (a & 31u); break;
    case Opcode::kSrlv: out.result = b >> (a & 31u); break;
    case Opcode::kSrav:
      out.result = static_cast<std::uint32_t>(sb >> (a & 31u));
      break;
    // Shift by immediate: a carries the rt value.
    case Opcode::kSll: out.result = a << (simm & 31); break;
    case Opcode::kSrl: out.result = a >> (simm & 31); break;
    case Opcode::kSra:
      out.result = static_cast<std::uint32_t>(sa >> (simm & 31));
      break;
    case Opcode::kAddiu:
      out.result = a + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kAndi: out.result = a & zimm; break;
    case Opcode::kOri: out.result = a | zimm; break;
    case Opcode::kXori: out.result = a ^ zimm; break;
    case Opcode::kSlti: out.result = (sa < simm) ? 1u : 0u; break;
    case Opcode::kSltiu:
      out.result = (a < static_cast<std::uint32_t>(simm)) ? 1u : 0u;
      break;
    case Opcode::kLui: out.result = zimm << 16; break;
    case Opcode::kLw:
    case Opcode::kSw:
      out.result = a + static_cast<std::uint32_t>(simm);  // effective address
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlez:
    case Opcode::kBgtz:
    case Opcode::kBltz:
    case Opcode::kBgez: {
      bool taken = false;
      switch (op) {
        case Opcode::kBeq: taken = (a == b); break;
        case Opcode::kBne: taken = (a != b); break;
        case Opcode::kBlez: taken = (sa <= 0); break;
        case Opcode::kBgtz: taken = (sa > 0); break;
        case Opcode::kBltz: taken = (sa < 0); break;
        default: taken = (sa >= 0); break;
      }
      out.result = a - b;  // the comparator's subtraction
      out.control_taken = taken;
      out.target = pc + 1 + static_cast<std::uint32_t>(imm);
      break;
    }
    case Opcode::kJ:
    case Opcode::kJal:
      out.control_taken = true;
      out.target = static_cast<std::uint32_t>(imm);
      out.result = pc + 1;  // link value (kJal only)
      break;
    case Opcode::kJr:
    case Opcode::kJalr:
      out.control_taken = true;
      out.target = a;
      out.result = pc + 1;
      break;
    case Opcode::kHalt:
      break;
  }
  return out;
}

std::int8_t reg_or_none(const std::optional<isa::Reg>& r) {
  return r ? static_cast<std::int8_t>(*r) : std::int8_t{-1};
}

/// The decoded text a Pipeline over `program` may run: non-empty and of
/// `program`'s length.
std::shared_ptr<const DecodedText> checked(
    const assembler::Program& program,
    std::shared_ptr<const DecodedText> text) {
  if (program.text.empty()) {
    throw std::invalid_argument("Pipeline: empty program");
  }
  if (text == nullptr || text->size() != program.text.size()) {
    throw std::invalid_argument(
        "Pipeline: decoded text does not match the program");
  }
  return text;
}

}  // namespace

std::shared_ptr<const DecodedText> predecode(
    const assembler::Program& program) {
  auto text = std::make_shared<DecodedText>();
  text->reserve(program.text.size());
  for (const isa::Instruction& inst : program.text) {
    const isa::OpcodeInfo& oi = isa::info(inst.op);
    DecodedInstruction d;
    // An unencodable instruction is only an error if it is ever fetched:
    // IF re-encodes it then, throwing encode's own error.
    try {
      d.encoded = isa::encode(inst);
    } catch (const std::invalid_argument&) {
      d.encodable = false;
    }
    d.imm = inst.imm;
    d.op = inst.op;
    d.unit = oi.unit;
    d.dest = reg_or_none(inst.dest());
    d.src1 = reg_or_none(inst.src1());
    d.src2 = reg_or_none(inst.src2());
    d.secure = inst.secure;
    d.is_load = oi.is_load;
    d.is_store = oi.is_store;
    d.is_halt = inst.op == Opcode::kHalt;
    text->push_back(d);
  }
  return text;
}

Pipeline::Pipeline(const assembler::Program& program,
                   std::shared_ptr<const DecodedText> text, SimConfig config)
    : program_(program),
      decoded_(checked(program, std::move(text))),
      text_(*decoded_),
      config_(config),
      dmem_(program),
      pc_(program.entry()) {}

Pipeline::Pipeline(const assembler::Program& program,
                   std::shared_ptr<const DecodedText> text,
                   const Snapshot& snapshot)
    : program_(program),
      decoded_(checked(program, std::move(text))),
      text_(*decoded_),
      config_(snapshot.config),
      dmem_(snapshot.memory),  // copy-on-write: pages stay shared until written
      regs_(snapshot.regs),
      pc_(snapshot.pc),
      if_id_(snapshot.if_id),
      id_ex_(snapshot.id_ex),
      ex_mem_(snapshot.ex_mem),
      mem_wb_(snapshot.mem_wb),
      cycles_(snapshot.cycles),
      retired_(snapshot.retired),
      stalls_(snapshot.stalls),
      flushes_(snapshot.flushes),
      halted_(snapshot.halted),
      halt_seen_(snapshot.halt_seen) {
  if (snapshot.text_size != text_.size()) {
    throw std::invalid_argument(
        "Pipeline: snapshot was captured from a different program (text size " +
        std::to_string(snapshot.text_size) + " vs " +
        std::to_string(text_.size()) + ")");
  }
}

Snapshot Pipeline::snapshot() const {
  return Snapshot{.config = config_,
                  .memory = dmem_,
                  .regs = regs_,
                  .pc = pc_,
                  .if_id = if_id_,
                  .id_ex = id_ex_,
                  .ex_mem = ex_mem_,
                  .mem_wb = mem_wb_,
                  .cycles = cycles_,
                  .retired = retired_,
                  .stalls = stalls_,
                  .flushes = flushes_,
                  .halted = halted_,
                  .halt_seen = halt_seen_,
                  .text_size = text_.size()};
}

std::uint32_t Pipeline::forwarded(int r, std::uint32_t id_value) const {
  if (r == isa::kZero) return 0;
  // Younger result wins: the instruction currently in MEM first.
  if (ex_mem_.valid) {
    const Decoded& producer = text_[ex_mem_.pc];
    if (producer.dest == r) {
      if (producer.is_load) {
        // The interlock must have kept the consumer out of EX.
        throw std::logic_error("Pipeline: load-use forwarding violation");
      }
      return ex_mem_.alu;
    }
  }
  if (mem_wb_.valid && text_[mem_wb_.pc].dest == r) return mem_wb_.value;
  return id_value;
}

bool Pipeline::step(energy::CycleActivity& activity) {
  activity.clear_flags();
  if (halted_) return false;
  ++cycles_;

  // Snapshots of the start-of-cycle latch state.
  const IfId if_id = if_id_;
  const IdEx id_ex = id_ex_;
  const ExMem ex_mem = ex_mem_;
  const MemWb mem_wb = mem_wb_;

  // ---- WB (first half of the cycle: writes are visible to ID reads) ----
  if (mem_wb.valid) {
    const Decoded& d = text_[mem_wb.pc];
    if (d.dest >= 0) regs_[static_cast<std::size_t>(d.dest)] = mem_wb.value;
    ++retired_;
    activity.rf_write = d.dest >= 0;
    activity.wb_secure = d.secure;
    activity.retired = true;
    activity.retire_pc = mem_wb.pc;
    if (d.is_halt) halted_ = true;
  }

  // ---- MEM ----
  MemWb next_mem_wb;
  if (ex_mem.valid) {
    const Decoded& d = text_[ex_mem.pc];
    std::uint32_t value = ex_mem.alu;
    if (d.is_load) {
      value = dmem_.load_word(ex_mem.alu);
      activity.mem.read = true;
    } else if (d.is_store) {
      dmem_.store_word(ex_mem.alu, ex_mem.store_data);
      activity.mem.write = true;
    }
    if (d.is_load || d.is_store) {
      activity.mem.secure = d.secure;
      activity.mem.address = ex_mem.alu;
      activity.mem.data = d.is_load ? value : ex_mem.store_data;
    }
    next_mem_wb = MemWb{true, ex_mem.pc, value};
  }

  // ---- EX ----
  ExMem next_ex_mem;
  bool flush = false;
  std::uint32_t flush_target = 0;
  if (id_ex.valid) {
    const Decoded& d = text_[id_ex.pc];
    std::uint32_t a = id_ex.a;
    std::uint32_t b = id_ex.b;
    if (d.src1 >= 0) a = forwarded(d.src1, a);
    if (d.src2 >= 0) b = forwarded(d.src2, b);
    const ExOutput out = execute(d.op, d.imm, id_ex.pc, a, b);
    next_ex_mem = ExMem{true, id_ex.pc, out.result, b};
    if (out.control_taken) {
      flush = true;
      flush_target = out.target;
    }
    activity.ex.valid = true;
    activity.ex.unit = d.unit;
    activity.ex.secure = d.secure;
    activity.ex.a = a;
    activity.ex.b = b;
    activity.ex.result = out.result;
  }

  // ---- ID (with load-use interlock against the instruction in EX) ----
  IdEx next_id_ex;
  bool stall = false;
  if (if_id.valid) {
    const Decoded& d = text_[if_id.pc];
    // Destinations of the two older instructions still in flight (-1 when
    // the stage holds a bubble); a source register never matches -1.
    const int ex_dest = id_ex.valid ? text_[id_ex.pc].dest : -1;
    const int mem_dest = ex_mem.valid ? text_[ex_mem.pc].dest : -1;
    if (ex_dest >= 0 && text_[id_ex.pc].is_load &&
        (d.src1 == ex_dest || d.src2 == ex_dest)) {
      stall = true;
      ++stalls_;
    }
    if (!stall) {
      // Operand isolation: when the hazard logic already knows a source
      // will be superseded by forwarding in EX (its producer is currently
      // in EX or MEM), the register-file read is gated and a zero is
      // latched.  This is a standard low-power technique — and it also
      // closes a side channel: without it, the *stale* architectural value
      // (possibly secret-derived) of an overwritten register would transit
      // the ID/EX register under a non-secure instruction.
      int reads = 0;
      const auto port = [&](int r) -> std::uint32_t {
        if (r < 0) return 0u;
        if (config_.operand_isolation && (r == ex_dest || r == mem_dest)) {
          return 0u;
        }
        ++reads;
        return regs_[static_cast<std::size_t>(r)];
      };
      next_id_ex = IdEx{true, if_id.pc, port(d.src1), port(d.src2)};
      activity.decode = true;
      activity.rf_reads = reads;
    }
  }

  // ---- IF ----
  IfId next_if_id = if_id;  // default: hold on stall
  bool fetched = false;
  std::uint64_t fetch_bits = 0;
  if (!stall) {
    if (!halt_seen_ && pc_ < text_.size()) {
      const Decoded& d = text_[pc_];
      fetch_bits = d.encodable ? d.encoded : isa::encode(program_.text[pc_]);
      next_if_id = IfId{true, pc_};
      fetched = true;
      if (d.is_halt) halt_seen_ = true;
      ++pc_;
    } else {
      // Past a halt, or past the end of text while an in-flight control
      // transfer (e.g. a trailing jr) may still redirect fetch: issue
      // bubbles.  A genuine runaway is detected below when the pipeline
      // drains completely without halting.
      next_if_id = IfId{};
    }
  }
  if (fetched) {
    activity.fetch = true;
    activity.fetch_bits = fetch_bits;
    activity.fetch_pc = next_if_id.pc;
  }

  // ---- Control transfer: squash the two younger stages ----
  if (flush) {
    ++flushes_;
    next_if_id = IfId{};
    next_id_ex = IdEx{};
    pc_ = flush_target;
    halt_seen_ = false;  // fetch resumes at the target
    if (pc_ >= text_.size()) {
      throw std::runtime_error("Pipeline: jump outside text to " +
                               std::to_string(pc_));
    }
  }

  // ---- Latch energy activity (writes occurring at this clock edge) ----
  // Clock-gated: bubbles and held (stalled) latches are not rewritten.
  if (fetched && !flush) {
    activity.if_id = energy::LatchWrite{true, false, fetch_bits};
  }
  if (next_id_ex.valid && !flush) {
    activity.id_ex = energy::LatchWrite{
        true, text_[next_id_ex.pc].secure,
        static_cast<std::uint64_t>(next_id_ex.a) |
            (static_cast<std::uint64_t>(next_id_ex.b) << 32)};
  }
  if (next_ex_mem.valid) {
    activity.ex_mem = energy::LatchWrite{
        true, text_[next_ex_mem.pc].secure,
        static_cast<std::uint64_t>(next_ex_mem.alu) |
            (static_cast<std::uint64_t>(next_ex_mem.store_data) << 32)};
  }
  if (next_mem_wb.valid) {
    activity.mem_wb = energy::LatchWrite{true, text_[next_mem_wb.pc].secure,
                                         next_mem_wb.value};
  }

  // ---- Commit ----
  // On a stall next_id_ex is the default bubble; on a flush it was squashed
  // above, so a plain assignment covers interlock and control transfer.
  if_id_ = next_if_id;
  id_ex_ = next_id_ex;
  ex_mem_ = next_ex_mem;
  mem_wb_ = next_mem_wb;

  if (!halted_ && !halt_seen_ && pc_ >= text_.size() &&
      !if_id_.valid && !id_ex_.valid && !ex_mem_.valid && !mem_wb_.valid) {
    throw std::runtime_error("Pipeline: pc ran off the end of text at " +
                             std::to_string(pc_));
  }
  return !halted_;
}

SimResult Pipeline::run() {
  return run([](const energy::CycleActivity&) {});
}

}  // namespace emask::sim

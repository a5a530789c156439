#include "compiler/runtime.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"
#include "common/task_pool.h"

namespace cinnamon::compiler {

void
ProgramRuntime::bindInput(const std::string &name,
                          const fhe::Ciphertext &ct)
{
    inputs_[name] = ct;
    ++bindings_version_;
}

void
ProgramRuntime::bindPlain(const std::string &name,
                          std::vector<fhe::Cplx> values)
{
    plains_[name] = std::move(values);
    ++bindings_version_;
}

namespace {

/**
 * The string a key's generator is derived from. It is deliberately
 * copy-free: a batched member must draw its keys from exactly the
 * identities an unbatched run would use, so its outputs stay
 * bit-identical. Members are told apart by their master seeds.
 */
std::string
keyIdentity(const DataDescriptor &desc)
{
    return desc.name + (desc.chip_digits ? ":1:" : ":0:") +
           std::to_string(desc.group_size);
}

} // namespace

std::size_t
ProgramRuntime::chipsPerCopy(std::size_t chips) const
{
    const std::size_t copies =
        copy_keys_.empty() ? 1 : copy_keys_.size();
    CINN_FATAL_UNLESS(chips % copies == 0,
                      "batched program chips (" << chips
                          << ") must split evenly over " << copies
                          << " copies");
    return chips / copies;
}

void
ProgramRuntime::prepareKeys(const CompiledProgram &program)
{
    if (keys_program_ == &program)
        return;
    if (keys_ == nullptr) {
        own_keys_ = std::make_unique<isa::KeyCache>();
        keys_ = own_keys_.get();
    }
    const std::size_t chips = program.machine.numChips();
    const std::size_t chips_per_copy = chipsPerCopy(chips);

    // One entry per distinct (master seed, identity), with the shape
    // the program reads of it: batch members sharing a seed share it.
    struct Need
    {
        fhe::KeyGenerator *keygen;
        const fhe::SecretKey *sk;
        const DataDescriptor *desc;
        std::string identity;
        fhe::KeyShape shape;
        std::shared_ptr<const fhe::EvalKey> key;
    };
    std::vector<Need> needs;
    std::map<std::pair<uint64_t, std::string>, std::size_t> need_of;
    std::map<std::pair<std::size_t, const DataDescriptor *>, std::size_t>
        slot_of;
    for (std::size_t c = 0; c < chips; ++c) {
        const std::size_t copy = c / chips_per_copy;
        for (const auto &ins : program.machine.chips[c].instrs) {
            if (ins.op != isa::Opcode::Load)
                continue;
            auto it = program.data.find(ins.imm);
            if (it == program.data.end() ||
                it->second.kind != DataDescriptor::Kind::EvalKey)
                continue;
            const DataDescriptor &desc = it->second;
            auto [slot, fresh] = slot_of.try_emplace({copy, &desc}, 0);
            if (!fresh)
                continue;
            fhe::KeyGenerator *keygen = keygen_;
            const fhe::SecretKey *sk = sk_;
            if (!copy_keys_.empty()) {
                keygen = copy_keys_[copy].keygen;
                sk = copy_keys_[copy].sk;
            }
            std::string identity = keyIdentity(desc);
            auto [n, added] = need_of.try_emplace(
                {keygen->seed(), identity}, needs.size());
            if (added)
                needs.push_back({keygen, sk, &desc, std::move(identity),
                                 {}, nullptr});
            slot->second = n->second;
            fhe::KeyShape &shape = needs[n->second].shape;
            shape.digits = std::max(shape.digits, desc.digit + 1);
            shape.basis.push_back(desc.prime);
        }
    }

    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < needs.size(); ++i) {
        Need &need = needs[i];
        std::sort(need.shape.basis.begin(), need.shape.basis.end());
        need.shape.basis.erase(std::unique(need.shape.basis.begin(),
                                           need.shape.basis.end()),
                               need.shape.basis.end());
        fhe::KeyShape have;
        need.key = keys_->find(need.keygen->seed(), need.identity,
                               need.shape, &have);
        if (need.key == nullptr) {
            // Regenerate over the resident key's shape too, so the
            // cache never trades a wider key for a narrower one.
            if (have.digits != 0)
                need.shape = fhe::KeyShape::unite(have, need.shape);
            misses.push_back(i);
        }
    }

    // Draw each missing key from a generator derived from (master
    // seed, key identity): the key bits are then independent of the
    // order keys are generated in — so they may be generated in
    // parallel — and of the order the program loads them in, so
    // reordering passes in the compiler cannot perturb outputs.
    TaskPool::global().forEach(misses.size(), [&](std::size_t m) {
        Need &need = needs[misses[m]];
        const DataDescriptor &desc = *need.desc;
        fhe::KeyGenerator kg = need.keygen->derived(need.identity);
        const auto digits =
            desc.chip_digits
                ? chipDigitBases(ctx_->maxLevel(), desc.group_size)
                : ctx_->digits(ctx_->maxLevel());
        if (desc.name == "relin") {
            const auto s = need.sk->s.restrictTo(need.shape.basis);
            need.key = std::make_shared<const fhe::EvalKey>(
                kg.makeKeySwitchKeyForDigits(*need.sk, s.mul(s), digits,
                                             need.shape));
        } else {
            need.key = std::make_shared<const fhe::EvalKey>(
                kg.galoisKeyForDigits(*need.sk, desc.galois, digits,
                                      need.shape));
        }
    });
    for (const std::size_t m : misses)
        keys_->insert(needs[m].keygen->seed(), needs[m].identity,
                      needs[m].shape, needs[m].key);

    key_of_.clear();
    for (const auto &[slot, n] : slot_of)
        key_of_.emplace(slot, needs[n].key);
    keys_program_ = &program;
}

isa::LimbRef
ProgramRuntime::materialize(const DataDescriptor &desc, std::size_t copy)
{
    switch (desc.kind) {
      case DataDescriptor::Kind::InputCt: {
        auto it = inputs_.find(desc.name);
        CINN_FATAL_UNLESS(it != inputs_.end(),
                          "unbound program input '" << desc.name << "'");
        const fhe::Ciphertext &ct = it->second;
        const rns::RnsPoly &p = desc.poly == 0 ? ct.c0 : ct.c1;
        int pos = p.findPrime(desc.prime);
        CINN_FATAL_UNLESS(pos >= 0, "input '" << desc.name
                                              << "' lacks limb "
                                              << desc.prime);
        return isa::LimbRef{desc.prime, p.limb(pos)};
      }
      case DataDescriptor::Kind::Plain: {
        std::ostringstream key;
        key << desc.name << ':' << desc.level << ':' << desc.scale;
        auto cached = plain_cache_.find(key.str());
        if (cached == plain_cache_.end()) {
            auto it = plains_.find(desc.name);
            CINN_FATAL_UNLESS(it != plains_.end(),
                              "unbound plaintext '" << desc.name << "'");
            auto poly = encoder_->encode(it->second, desc.level,
                                         desc.scale);
            poly.toEval();
            cached = plain_cache_.emplace(key.str(), std::move(poly))
                         .first;
        }
        int pos = cached->second.findPrime(desc.prime);
        CINN_ASSERT(pos >= 0, "plaintext limb missing");
        return isa::LimbRef{desc.prime, cached->second.limb(pos)};
      }
      case DataDescriptor::Kind::EvalKey: {
        auto it = key_of_.find({copy, &desc});
        CINN_ASSERT(it != key_of_.end(), "evaluation key not prepared");
        const fhe::EvalKey &evk = *it->second;
        CINN_ASSERT(desc.digit < evk.parts.size(),
                    "evaluation key digit out of range");
        const rns::RnsPoly &p = desc.poly == 0
                                    ? evk.parts[desc.digit].first
                                    : evk.parts[desc.digit].second;
        int pos = p.findPrime(desc.prime);
        CINN_ASSERT(pos >= 0, "evaluation key limb missing");
        return isa::LimbRef{desc.prime, p.limb(pos)};
      }
      case DataDescriptor::Kind::Output:
        panic("outputs are not materialized as inputs");
    }
    panic("unreachable");
}

std::map<std::string, fhe::Ciphertext>
ProgramRuntime::run(const CompiledProgram &program)
{
    const std::size_t chips = program.machine.numChips();
    if (emu_ && emu_chips_ != chips) {
        if (emu_cache_)
            emu_cache_->release(std::move(emu_));
        emu_.reset();
    }
    if (!emu_) {
        // acquire() hands back a resetMemory()'d instance with warm
        // capacity; a fresh build needs no reset.
        emu_ = emu_cache_
            ? emu_cache_->acquire(chips)
            : std::make_unique<isa::Emulator>(*ctx_, chips);
        emu_chips_ = chips;
        last_program_ = nullptr;
        prestored_program_ = nullptr;
    } else if (last_program_ != &program) {
        // Same chips, different program: drop the old program's
        // mappings and register definitions (capacity stays) so they
        // cannot mask this program's data-dependent faults.
        emu_->resetMemory();
        prestored_program_ = nullptr;
    }
    last_program_ = &program;
    isa::Emulator &emu = *emu_;
    emu.setWorkers(emu_workers_);

    // Apply (and consume) an armed fault: translate the stream
    // fraction into a concrete pc on the victim chip so the failure
    // point is a pure function of (program, fraction), never timing.
    if (fault_armed_) {
        fault_armed_ = false;
        const std::size_t victim = fault_chip_ % chips;
        const auto &instrs = program.machine.chips[victim].instrs;
        const auto pc = static_cast<std::size_t>(
            fault_at_ * static_cast<double>(instrs.size()));
        emu.injectChipFailure(victim,
                              std::min(pc, instrs.size() - 1));
    } else {
        emu.clearFault();
    }

    prepareKeys(program);

    // Materialize exactly the addresses each chip loads. Every
    // address is (re-)stored each run — stores to mapped addresses
    // overwrite in place — so reusing the emulator never leaks data
    // from a prior run or a prior input binding into this one.
    // With batched key material (setCopyKeys) the chips partition
    // evenly into copies, and each chip's evaluation keys come from
    // its copy's generator.
    const std::size_t chips_per_copy = chipsPerCopy(chips);
    // Re-running the identical program on the same emulator with no
    // binding changed in between: any pre-loaded address the program
    // never Stores to still holds exactly the limb the previous run
    // stored there (only Store instructions and this loop ever write
    // chip memory), so its materialize+memcpy is skipped. A partial
    // previous run (injected fault) is covered too — the clean set is
    // computed from the program text, not from what executed.
    const bool reuse_clean = prestored_program_ == &program &&
                             prestored_version_ == bindings_version_;
    std::unordered_set<uint64_t> footprint;
    std::unordered_set<uint64_t> dirtied;
    for (std::size_t c = 0; c < chips; ++c) {
        const std::size_t copy = c / chips_per_copy;
        // Pre-size the chip's arena/tables to the stream's declared
        // footprint (distinct Load/Store addresses) so the store hot
        // path never reallocates or rehashes mid-run.
        footprint.clear();
        dirtied.clear();
        for (const auto &ins : program.machine.chips[c].instrs) {
            if (ins.op == isa::Opcode::Load ||
                ins.op == isa::Opcode::Store)
                footprint.insert(ins.imm);
            if (ins.op == isa::Opcode::Store)
                dirtied.insert(ins.imm);
        }
        emu.memory(c).reserve(footprint.size());
        std::unordered_set<uint64_t> stored;
        for (const auto &ins : program.machine.chips[c].instrs) {
            if (ins.op != isa::Opcode::Load)
                continue;
            auto it = program.data.find(ins.imm);
            if (it == program.data.end())
                continue; // spill slot, produced by a Store at run time
            if (!stored.insert(ins.imm).second)
                continue;
            if (reuse_clean && dirtied.find(ins.imm) == dirtied.end())
                continue; // still holds last run's identical limb
            const isa::LimbRef limb = materialize(it->second, copy);
            emu.memory(c).store(ins.imm, limb.prime, limb.data);
        }
    }
    prestored_program_ = &program;
    prestored_version_ = bindings_version_;
    keys_program_ = nullptr;
    key_of_.clear();

    emu.run(program.machine);
    last_stats_ = emu.lastRunStats();

    // Collect outputs from the owner chips' memories.
    std::map<std::string, fhe::Ciphertext> outputs;
    for (const auto &[name, info] : program.outputs) {
        const rns::Basis basis = ctx_->ciphertextBasis(info.level);
        fhe::Ciphertext ct;
        ct.level = info.level;
        ct.scale = info.scale;
        for (int poly = 0; poly < 2; ++poly) {
            rns::RnsPoly p(ctx_->rns(), basis, rns::Domain::Eval);
            for (std::size_t i = 0; i <= info.level; ++i) {
                const uint32_t chip = info.owners[i];
                CINN_ASSERT(
                    emu.memory(chip).contains(info.addrs[poly][i]),
                    "output limb was never stored");
                p.setLimb(i,
                          emu.memory(chip).at(info.addrs[poly][i]).data);
            }
            (poly == 0 ? ct.c0 : ct.c1) = std::move(p);
        }
        outputs.emplace(name, std::move(ct));
    }
    return outputs;
}

} // namespace cinnamon::compiler

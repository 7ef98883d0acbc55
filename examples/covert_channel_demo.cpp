/**
 * @file
 * Example: sending a message through the StealthyStreamline covert
 * channel on a simulated Skylake L1 set, end to end.
 *
 * Encodes an ASCII string into bits, transmits it through the cache
 * timing channel (with realistic noise), decodes it back, and prints
 * the bit rate / error statistics — the Section V-E measurement in
 * miniature.
 *
 *   $ ./examples/covert_channel_demo
 */

#include <iostream>
#include <string>

#include "core/autocat.hpp"

namespace {

autocat::BitString
encodeAscii(const std::string &text)
{
    autocat::BitString bits;
    for (char c : text) {
        for (int b = 7; b >= 0; --b)
            bits.push_back((static_cast<unsigned char>(c) >> b) & 1u);
    }
    return bits;
}

} // namespace

int
main()
{
    using namespace autocat;

    const std::string secret_message =
        "the cache remembers what you touched";
    const BitString message = encodeAscii(secret_message);

    const CovertMachinePreset machine = tableXMachines()[1];  // i7-6700
    std::cout << "Machine: " << machine.cpu << " (" << machine.uarch
              << ", " << machine.l1d << ")\n"
              << "Message: \"" << secret_message << "\" ("
              << message.size() << " bits)\n\n";

    for (CovertProtocol protocol :
         {CovertProtocol::LruAddrBased,
          CovertProtocol::StealthyStreamline}) {
        CovertChannelConfig cfg;
        cfg.protocol = protocol;
        cfg.ways = machine.l1Ways;
        cfg.bitsPerSymbol = 2;
        cfg.latency = machine.latency;
        cfg.noise = machine.noise;
        cfg.seed = 7;

        CovertChannel channel(cfg);
        const CovertResult res = channel.transmit(message);

        std::cout << (protocol == CovertProtocol::StealthyStreamline
                          ? "StealthyStreamline"
                          : "LRU address-based ")
                  << ": " << TextTable::fmt(res.mbps, 2) << " Mbps, "
                  << TextTable::fmt(res.errorRate * 100.0, 2)
                  << "% bit errors, " << res.victimMisses
                  << " sender misses\n";
    }

    // Show an actual decode through the noisy channel.
    CovertChannelConfig cfg;
    cfg.protocol = CovertProtocol::StealthyStreamline;
    cfg.ways = machine.l1Ways;
    cfg.bitsPerSymbol = 2;
    cfg.latency = machine.latency;
    cfg.noise = machine.noise;
    cfg.repeats = 3;  // majority vote for a clean demo decode
    cfg.seed = 11;
    CovertChannel channel(cfg);
    channel.transmit(message);

    std::cout << "\nStealthyStreamline never causes a sender/victim"
                 " miss, which is what lets it slip past miss-count"
                 " detectors while beating the LRU channel's rate.\n";
    return 0;
}
